//! # speakup-proxy — a real TCP thinner (§6 over sockets)
//!
//! The simulator in `speakup-exp` validates speak-up's *behaviour*; this
//! crate demonstrates the same front end over real TCP sockets, speaking
//! the `speakup-proto` HTTP exchange, so the system can be exercised with
//! loopback clients (see the `real_proxy` example and integration tests).
//!
//! ## Protocol (the polling variant of §6's delayed response)
//!
//! 1. Client sends `GET /service?id=N`. If the emulated server is free
//!    the thinner runs the request and replies `X-SpeakUp: serve`.
//! 2. Otherwise the thinner replies `X-SpeakUp: encourage` immediately
//!    (standing in for the JavaScript the prototype returns) and registers
//!    `N` as a contender in the §3.3 virtual auction.
//! 3. The client opens a payment connection and POSTs 1 MB dummy-byte
//!    chunks to `/payment?id=N`. The thinner credits bytes *as they
//!    arrive*. A completed POST that has not yet won gets
//!    `X-SpeakUp: continue`; when `N` wins an auction, the thinner closes
//!    the payment connection (terminating the channel).
//! 4. The client re-issues `GET /service?id=N`; the thinner holds this
//!    connection until the server finishes and then replies
//!    `X-SpeakUp: serve` (or `drop` if the channel timed out).
//!
//! The architecture is deliberately boring: a listener thread, a thread
//! per connection, one back-end "server" thread that sleeps for the
//! drawn service time (`U[0.9/c, 1.1/c]`), and a housekeeping ticker.
//! All speak-up decisions live in `speakup_core::AuctionFrontEnd` behind
//! a mutex — the same pure state machine the simulator drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;

use speakup_core::thinner::{AuctionConfig, AuctionFrontEnd, FrontEnd};
use speakup_core::types::{ClientId, Directive, RequestId, RequestKey};
use speakup_net::rng::Pcg32;
use speakup_net::time::SimTime;
use speakup_proto::http::{ParseEvent, RequestParser};
use speakup_proto::message::{
    classify_request, encode_continue, encode_dropped, encode_encourage, encode_served,
    ClientMessage,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Proxy configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProxyConfig {
    /// Emulated server capacity, requests/second.
    pub capacity: f64,
    /// RNG seed for service times.
    pub seed: u64,
    /// Auction configuration (channel idle timeout).
    pub auction: AuctionConfig,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            capacity: 50.0,
            seed: 1,
            auction: AuctionConfig::default(),
        }
    }
}

/// Final verdict for a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The request was served.
    Served,
    /// The request was dropped.
    Dropped,
}

#[derive(Default)]
struct Shared {
    fe: Option<AuctionFrontEnd>,
    /// Verdicts for finished requests.
    verdicts: HashMap<u64, Verdict>,
    /// Channels whose payment connection must close.
    terminated: HashMap<u64, bool>,
    /// Requests the front end knows about.
    known: HashMap<u64, ()>,
    /// Counters.
    payment_bytes: u64,
    served: u64,
    dropped: u64,
}

struct Inner {
    state: Mutex<Shared>,
    wake: Condvar,
    start: Instant,
    server_tx: Mutex<mpsc::Sender<(RequestKey, Duration)>>,
    shutdown: AtomicBool,
}

impl Inner {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    fn execute(&self, shared: &mut Shared, directives: Vec<Directive>) {
        for d in directives {
            match d {
                Directive::Admit(k) => {
                    // Service time is drawn by the server thread.
                    self.server_tx
                        .lock()
                        .expect("server_tx")
                        .send((k, Duration::ZERO))
                        .ok();
                }
                Directive::Encourage(_) => {
                    // The encourage response is written by the connection
                    // thread that received the GET.
                }
                Directive::Drop(k) => {
                    shared.verdicts.insert(k.req.0, Verdict::Dropped);
                    shared.dropped += 1;
                    self.wake.notify_all();
                }
                Directive::TerminateChannel(k) => {
                    shared.terminated.insert(k.req.0, true);
                }
                Directive::Suspend(_) | Directive::Resume(_) | Directive::AbortRequest(_) => {
                    unreachable!("auction front end never emits §5 directives")
                }
            }
        }
    }

    fn with_fe(
        &self,
        shared: &mut Shared,
        f: impl FnOnce(&mut AuctionFrontEnd, SimTime, &mut Vec<Directive>),
    ) {
        let now = self.now();
        let mut out = Vec::new();
        let mut fe = shared.fe.take().expect("front end present");
        f(&mut fe, now, &mut out);
        shared.fe = Some(fe);
        self.execute(shared, out);
    }
}

/// A running proxy; dropping it shuts the threads down.
pub struct ProxyHandle {
    /// The address the proxy listens on.
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl ProxyHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total payment bytes sunk so far.
    pub fn payment_bytes(&self) -> u64 {
        self.inner.state.lock().expect("state").payment_bytes
    }

    /// (served, dropped) counts so far.
    pub fn outcomes(&self) -> (u64, u64) {
        let s = self.inner.state.lock().expect("state");
        (s.served, s.dropped)
    }

    /// Stop the proxy and join its threads.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wake.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn key_of(id: u64) -> RequestKey {
    // The wire id is the identity; the auction never trusts client
    // identity anyway (threat model, §2.2).
    RequestKey::new(ClientId(0), RequestId(id))
}

/// Start a proxy on `127.0.0.1` (ephemeral port).
pub fn spawn(config: ProxyConfig) -> std::io::Result<ProxyHandle> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let (server_tx, server_rx) = mpsc::channel::<(RequestKey, Duration)>();
    let inner = Arc::new(Inner {
        state: Mutex::new(Shared {
            fe: Some(AuctionFrontEnd::new(config.auction)),
            ..Shared::default()
        }),
        wake: Condvar::new(),
        // Real wall clock: the proxy serves live sockets.
        start: Instant::now(),
        server_tx: Mutex::new(server_tx),
        shutdown: AtomicBool::new(false),
    });

    let mut threads = Vec::new();

    // Back-end server thread: one request at a time, real sleeps.
    {
        let inner = Arc::clone(&inner);
        let capacity = config.capacity;
        let mut rng = Pcg32::new(config.seed, 0x5e1);
        threads.push(std::thread::spawn(move || {
            while !inner.shutdown.load(Ordering::SeqCst) {
                match server_rx.recv_timeout(Duration::from_millis(50)) {
                    Ok((k, _)) => {
                        let work = rng.uniform(0.9, 1.1) / capacity;
                        std::thread::sleep(Duration::from_secs_f64(work));
                        let mut shared = inner.state.lock().expect("state");
                        shared.verdicts.insert(k.req.0, Verdict::Served);
                        shared.served += 1;
                        inner.with_fe(&mut shared, |fe, now, out| fe.on_server_done(now, k, out));
                        inner.wake.notify_all();
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        }));
    }

    // Housekeeping ticker: channel timeouts.
    {
        let inner = Arc::clone(&inner);
        threads.push(std::thread::spawn(move || {
            while !inner.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                let mut shared = inner.state.lock().expect("state");
                inner.with_fe(&mut shared, |fe, now, out| {
                    fe.on_tick(now, out);
                });
            }
        }));
    }

    // Accept loop.
    {
        let inner = Arc::clone(&inner);
        threads.push(std::thread::spawn(move || {
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let inner = Arc::clone(&inner);
                        // Connection threads are detached; they exit when
                        // the peer closes or shutdown flips.
                        std::thread::spawn(move || {
                            let _ = handle_connection(&inner, stream);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        }));
    }

    Ok(ProxyHandle {
        addr,
        inner,
        threads,
    })
}

/// Wait (bounded) until `id` has a verdict; returns it.
fn await_verdict(inner: &Inner, id: u64) -> Verdict {
    let mut shared = inner.state.lock().expect("state");
    loop {
        if let Some(v) = shared.verdicts.get(&id) {
            return *v;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return Verdict::Dropped;
        }
        let (guard, _) = inner
            .wake
            .wait_timeout(shared, Duration::from_millis(100))
            .expect("wait");
        shared = guard;
    }
}

fn handle_connection(inner: &Inner, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_nodelay(true).ok();
    let mut parser = RequestParser::new();
    let mut buf = [0u8; 16 * 1024];
    // The id of the payment channel this connection carries, if any.
    let mut paying_for: Option<u64> = None;

    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        // If this is a payment connection whose channel was terminated,
        // close it — that is how the thinner ends the §3.3 channel.
        if let Some(id) = paying_for {
            let shared = inner.state.lock().expect("state");
            if shared.terminated.get(&id).copied().unwrap_or(false) {
                return Ok(());
            }
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        parser.push(&buf[..n]);
        while let Some(event) = parser
            .next_event()
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad request"))?
        {
            match event {
                ParseEvent::Head(head) => match classify_request(&head) {
                    Ok(ClientMessage::Service(id)) => {
                        serve_get(inner, &mut stream, id)?;
                    }
                    Ok(ClientMessage::Payment(id, _len)) => {
                        paying_for = Some(id);
                    }
                    Err(_) => {
                        let _ = stream.write_all(&encode_dropped());
                        return Ok(());
                    }
                },
                ParseEvent::BodyChunk(nbytes) => {
                    if let Some(id) = paying_for {
                        let mut shared = inner.state.lock().expect("state");
                        shared.payment_bytes += nbytes;
                        inner.with_fe(&mut shared, |fe, now, out| {
                            fe.on_payment(now, key_of(id), nbytes, out)
                        });
                    }
                }
                ParseEvent::Complete => {
                    if let Some(id) = paying_for {
                        // Full POST and no win yet: ask for another.
                        let terminated = {
                            let shared = inner.state.lock().expect("state");
                            shared.terminated.get(&id).copied().unwrap_or(false)
                        };
                        if terminated {
                            return Ok(());
                        }
                        stream.write_all(&encode_continue())?;
                    }
                }
            }
        }
    }
}

fn serve_get(inner: &Inner, stream: &mut TcpStream, id: u64) -> std::io::Result<()> {
    let key = key_of(id);
    enum Next {
        Respond(bytes::Bytes),
        Await,
    }
    let next = {
        let mut shared = inner.state.lock().expect("state");
        if let Some(v) = shared.verdicts.get(&id) {
            let wire = match v {
                Verdict::Served => encode_served(b"<html>ok</html>"),
                Verdict::Dropped => encode_dropped(),
            };
            Next::Respond(wire)
        } else if let std::collections::hash_map::Entry::Vacant(e) = shared.known.entry(id) {
            e.insert(());
            let mut admitted = false;
            inner.with_fe(&mut shared, |fe, now, out| {
                fe.on_request(now, key, out);
                admitted = out.iter().any(|d| matches!(d, Directive::Admit(_)));
            });
            if admitted {
                Next::Await
            } else {
                let rate = shared
                    .fe
                    .as_ref()
                    .and_then(|fe| fe.going_rate())
                    .unwrap_or(0);
                Next::Respond(encode_encourage(rate))
            }
        } else {
            // Re-poll of a contending/executing request: hold until done.
            Next::Await
        }
    };
    match next {
        Next::Respond(wire) => stream.write_all(&wire),
        Next::Await => {
            let verdict = await_verdict(inner, id);
            let wire = match verdict {
                Verdict::Served => encode_served(b"<html>ok</html>"),
                Verdict::Dropped => encode_dropped(),
            };
            stream.write_all(&wire)
        }
    }
}
