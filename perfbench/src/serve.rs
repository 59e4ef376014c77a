//! The `serve_zipf` workload: an in-process `xpe serve` daemon on
//! loopback, driven by an open-loop load generator.
//!
//! The generator replays the trace's burst schedule, time-scaled to a
//! target rate, over two pipelined connections: a sender thread writes
//! each burst when it is due and one receiver thread reads the replies
//! of both (two threads and two connections: within `nproc` on the
//! 2-core machines this was sized on). Each request is timed from when it
//! was *due*, so a stall delays every request queued behind it. A step in
//! which the generator itself ran late is marked invalid, not reported.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xpe_core::server::{FrameError, FrameReader, Json};
use xpe_core::{OutcomeTally, Server};

use crate::inputs::Inputs;
use crate::stats::{percentile, windowed};
use crate::trace::Tracer;

/// The latency limit `max_rate_qps` is judged against (p99).
pub const LIMIT_NS: u64 = 5_000_000;
/// A step is invalid when the generator's median send lateness exceeds
/// this (see [`Step::valid`]).
const LATE_TYPICAL_NS: u64 = 100_000;
/// The sender sleeps until this close to a due time, then spins.
const SPIN: Duration = Duration::from_micros(80);
/// Replies are cut off this long after the last request was due.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
const MAX_LINE: usize = 1 << 20;

/// A daemon serving on a loopback port from a background thread.
pub struct Daemon {
    pub addr: SocketAddr,
    handle: JoinHandle<OutcomeTally>,
}

impl Daemon {
    pub fn start(server: Server) -> Daemon {
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Daemon { addr, handle }
    }

    /// Sends `shutdown` and waits for the drain to finish.
    pub fn stop(self) -> Result<OutcomeTally, String> {
        let sent = Client::connect(self.addr).and_then(|mut c| c.call(b"{\"op\":\"shutdown\"}\n"));
        if let Err(e) = sent {
            return Err(format!("shutdown request failed: {e}"));
        }
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())
    }
}

/// One closed-loop connection.
pub struct Client {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: FrameReader::new(stream, MAX_LINE),
        })
    }

    /// Writes one request line and reads its reply line.
    pub fn call(&mut self, line: &[u8]) -> io::Result<Vec<u8>> {
        self.writer.write_all(line)?;
        match self.reader.read_frame() {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed")),
            Err(e) => Err(io::Error::other(format!("{e:?}"))),
        }
    }

    pub fn call_json(&mut self, line: &[u8]) -> io::Result<Json> {
        let reply = self.call(line)?;
        let text = String::from_utf8_lossy(&reply).into_owned();
        Json::parse(&text).map_err(|e| io::Error::other(e.to_string()))
    }
}

/// The `estimate` request line of every case.
pub fn frames(inputs: &Inputs) -> Vec<Vec<u8>> {
    inputs
        .cases
        .iter()
        .map(|c| {
            let mut q = String::with_capacity(c.text.len());
            for ch in c.text.chars() {
                match ch {
                    '"' => q.push_str("\\\""),
                    '\\' => q.push_str("\\\\"),
                    ch => q.push(ch),
                }
            }
            format!("{{\"op\":\"estimate\",\"query\":\"{q}\"}}\n").into_bytes()
        })
        .collect()
}

/// Whether an `estimate` reply is `ok` and carries the oracle's value.
pub fn reply_matches(inputs: &Inputs, case: usize, reply: &[u8]) -> (bool, f64) {
    let Ok(text) = std::str::from_utf8(reply) else {
        return (false, f64::NAN);
    };
    let Ok(json) = Json::parse(text) else {
        return (false, f64::NAN);
    };
    let ok = json.get("status").and_then(Json::as_str) == Some("ok");
    let value = json
        .get("estimate")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    (inputs.matches(case, ok, value), value)
}

/// Closed-loop pass over every distinct case; returns the answers and
/// the number of failed ones.
pub fn warm(
    addr: SocketAddr,
    inputs: &Inputs,
    frames: &[Vec<u8>],
) -> io::Result<(Vec<f64>, usize)> {
    let mut client = Client::connect(addr)?;
    let mut answers = Vec::with_capacity(frames.len());
    let mut failed = 0;
    for (case, frame) in frames.iter().enumerate() {
        let reply = client.call(frame)?;
        let (ok, value) = reply_matches(inputs, case, &reply);
        failed += usize::from(!ok);
        answers.push(value);
    }
    Ok((answers, failed))
}

/// Closed-loop `estimate` round trips over the arrival sequence on one
/// connection for `duration`: the round-trip times in ns and the number
/// of answers that failed the oracle.
pub fn round_trips(
    addr: SocketAddr,
    inputs: &Inputs,
    frames: &[Vec<u8>],
    duration: Duration,
) -> io::Result<(Vec<u64>, usize)> {
    let mut client = Client::connect(addr)?;
    let (mut ns, mut failed) = (Vec::new(), 0);
    let deadline = Instant::now() + duration;
    for &case in inputs.arrivals.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        let reply = client.call(&frames[case])?;
        ns.push(t.elapsed().as_nanos() as u64);
        failed += usize::from(!reply_matches(inputs, case, &reply).0);
    }
    Ok((ns, failed))
}

/// Median round trip of `n` idle `ping`s on one connection, in µs.
pub fn ping_p50_us(addr: SocketAddr, n: usize) -> io::Result<f64> {
    let mut client = Client::connect(addr)?;
    let mut ns = Vec::with_capacity(n);
    for i in 0..n + n / 10 {
        let t = Instant::now();
        client.call(b"{\"op\":\"ping\"}\n")?;
        if i >= n / 10 {
            ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    ns.sort_unstable();
    Ok(percentile(&ns, 50.0) / 1e3)
}

/// The daemon's `stats` reply.
pub fn scrape(addr: SocketAddr) -> io::Result<Json> {
    Client::connect(addr)?.call_json(b"{\"op\":\"stats\"}\n")
}

/// A number at a `/`-separated path of a `stats` reply.
pub fn stat(json: &Json, path: &str) -> f64 {
    let mut at = Some(json);
    for key in path.split('/') {
        at = at.and_then(|j| j.get(key));
    }
    at.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Requests per latency window of a step (see [`windowed`]).
const WINDOW: usize = 1000;

/// One open-loop step at a fixed rate.
pub struct Step {
    /// Target rate, requests per second.
    pub rate: f64,
    /// Requests scheduled per second of the schedule actually cut from
    /// the trace (the target up to the trace's own burstiness).
    pub realized: f64,
    pub sent: usize,
    pub answered: usize,
    pub failed: usize,
    /// Due-to-reply latency per request, in request order; failed and
    /// unanswered requests count as `u64::MAX` (they miss any limit).
    pub lat_ns: Vec<u64>,
    /// How late the generator sent each request, in request order.
    pub late_ns: Vec<u64>,
    /// Trace position after the step's last request.
    pub next: usize,
}

impl Step {
    /// The `p`-th percentile latency in µs: the median over windows of
    /// [`WINDOW`] consecutive requests.
    pub fn p_us(&self, p: f64) -> f64 {
        windowed(&self.lat_ns, p, WINDOW).0 / 1e3
    }

    pub fn late_p99_us(&self) -> f64 {
        windowed(&self.late_ns, 99.0, WINDOW).0 / 1e3
    }

    /// The generator kept to its schedule: its typical send was on time
    /// and at most a tenth of its sends ran later than the latency limit.
    /// (A stall of the whole machine delays the generator and the daemon
    /// alike; the requests it delays are timed from when they were due
    /// and count against the daemon, as a user would see them.)
    pub fn valid(&self) -> bool {
        let mut late = self.late_ns.clone();
        late.sort_unstable();
        percentile(&late, 50.0) <= LATE_TYPICAL_NS as f64
            && percentile(&late, 90.0) <= LIMIT_NS as f64
    }

    /// Whether the median latency of the step's last window exceeds the
    /// limit: requests were still queueing when the step ended.
    pub fn backlog(&self) -> bool {
        let tail = &self.lat_ns[self.lat_ns.len().saturating_sub(WINDOW)..];
        let mut tail = tail.to_vec();
        tail.sort_unstable();
        percentile(&tail, 50.0) > LIMIT_NS as f64
    }

    /// Every request answered correctly, p99 within the limit, and no
    /// growing backlog.
    pub fn meets_limit(&self) -> bool {
        self.failed == 0 && self.p_us(99.0) * 1e3 <= LIMIT_NS as f64 && !self.backlog()
    }
}

/// The trace's arrivals from position `from` on, scaled to `rate`
/// requests per second and cut at `duration`: `(due offset ns, case)`,
/// and the position after the last one taken. The trace wraps around.
fn schedule(
    inputs: &Inputs,
    rate: f64,
    duration: Duration,
    from: usize,
) -> (Vec<(u64, usize)>, usize) {
    let n = inputs.arrivals.len();
    let limit_ns = duration.as_nanos() as u64;
    let mut out = Vec::new();
    let mut k = from % n;
    if inputs.arrival_us.is_empty() {
        // No trace: evenly spaced arrivals over the arrival sequence.
        let gap_ns = 1e9 / rate;
        while (out.len() as f64 * gap_ns) as u64 <= limit_ns {
            out.push(((out.len() as f64 * gap_ns) as u64, inputs.arrivals[k]));
            k = (k + 1) % n;
        }
        return (out, k);
    }
    let us = &inputs.arrival_us;
    let span_us = (us[n - 1] - us[0]).max(1) as f64;
    let natural = (n - 1) as f64 / span_us * 1e6; // requests per second
    let scale = natural / rate; // trace µs → due µs
    let (mut base, mut offset) = (us[k], 0u64);
    loop {
        let due = offset + ((us[k] - base) as f64 * scale * 1e3) as u64;
        if due > limit_ns {
            break;
        }
        out.push((due, inputs.arrivals[k]));
        k += 1;
        if k == n {
            // Wrap: continue one mean gap after the last arrival.
            k = 0;
            offset = due + (1e9 / rate) as u64;
            base = us[0];
        }
    }
    (out, k)
}

fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Length of one step of a fixed-rate phase: the unit that is retried
/// when the generator falls behind.
const PHASE_STEP: Duration = Duration::from_secs(1);

/// A fixed-rate measurement: consecutive valid steps through the trace.
pub struct Phase {
    pub steps: Vec<Step>,
    /// Steps left out because the generator fell behind in every try.
    pub invalid: usize,
}

impl Phase {
    /// Runs `rate` for about `total`, in steps of [`PHASE_STEP`]. A step
    /// the generator could not keep to is left out; `None` when that
    /// happened to every step.
    pub fn run(
        addr: SocketAddr,
        inputs: &Inputs,
        frames: &[Vec<u8>],
        rate: f64,
        total: Duration,
        tracer: &mut Tracer,
    ) -> io::Result<Option<Phase>> {
        let count = (total.as_secs_f64() / PHASE_STEP.as_secs_f64())
            .round()
            .max(1.0) as usize;
        let mut phase = Phase {
            steps: Vec::with_capacity(count),
            invalid: 0,
        };
        let mut from = 0;
        for _ in 0..count {
            match valid_step(addr, inputs, frames, rate, PHASE_STEP, from, tracer)? {
                Some(s) => {
                    from = s.next;
                    phase.steps.push(s);
                }
                None => phase.invalid += 1,
            }
        }
        Ok((!phase.steps.is_empty()).then_some(phase))
    }

    /// The `p`-th percentile latency in µs: the median over windows of
    /// [`WINDOW`] requests.
    pub fn p_us(&self, p: f64) -> f64 {
        let lat: Vec<u64> = self
            .steps
            .iter()
            .flat_map(|s| s.lat_ns.iter().copied())
            .collect();
        windowed(&lat, p, WINDOW).0 / 1e3
    }

    pub fn samples(&self) -> usize {
        self.steps.iter().map(|s| s.lat_ns.len()).sum()
    }

    pub fn sent(&self) -> usize {
        self.steps.iter().map(|s| s.sent).sum()
    }

    pub fn answered(&self) -> usize {
        self.steps.iter().map(|s| s.answered).sum()
    }

    pub fn failed(&self) -> usize {
        self.steps.iter().map(|s| s.failed).sum()
    }

    pub fn late_p99_us(&self) -> f64 {
        let late: Vec<u64> = self
            .steps
            .iter()
            .flat_map(|s| s.late_ns.iter().copied())
            .collect();
        windowed(&late, 99.0, WINDOW).0 / 1e3
    }
}

/// Load-generator connections; requests alternate between them.
const CONNECTIONS: usize = 2;

/// Writes all of `buf` to a socket that may be in non-blocking mode.
fn write_all_spin(w: &mut TcpStream, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Replays the trace at `rate` for `duration` over fresh connections.
///
/// The sender (this thread) writes each burst — the requests due at the
/// same instant — when it is due, request `k` on connection
/// `k % CONNECTIONS`; one receiver thread waits on every connection at
/// once and timestamps each reply as it is read. Replies on a connection
/// come back in request order.
pub fn step(
    addr: SocketAddr,
    inputs: &Inputs,
    frames: &[Vec<u8>],
    rate: f64,
    duration: Duration,
    from: usize,
    tracer: &mut Tracer,
) -> io::Result<Step> {
    let (plan, next) = schedule(inputs, rate, duration, from);
    let n = plan.len();
    let mut streams = Vec::with_capacity(CONNECTIONS);
    let mut writers = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        writers.push(s.try_clone()?);
        s.set_nonblocking(true)?; // shared with the writer's clone
        streams.push(s);
    }
    let start = Instant::now() + Duration::from_millis(2);
    let hard_stop = start + duration + REPLY_TIMEOUT;
    let root = tracer.enter("loadgen.step", rate as u64);

    let (replies, late) = std::thread::scope(|s| {
        let receiver = s.spawn(move || receive(streams, n, hard_stop));
        let mut late = vec![0u64; n];
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); CONNECTIONS];
        let mut k = 0;
        'send: while k < n {
            let due = plan[k].0;
            let end = k + plan[k..].iter().take_while(|p| p.0 == due).count();
            let due_at = start + Duration::from_nanos(due);
            wait_until(due_at);
            let id = tracer.enter("client.send", k as u64);
            for (j, &(_, case)) in plan[k..end].iter().enumerate() {
                bufs[(k + j) % CONNECTIONS].extend_from_slice(&frames[case]);
            }
            for (c, buf) in bufs.iter_mut().enumerate() {
                if buf.is_empty() {
                    continue;
                }
                let at = due_at.elapsed().as_nanos() as u64;
                for j in (k..end).filter(|j| j % CONNECTIONS == c) {
                    late[j] = at;
                }
                let sent = write_all_spin(&mut writers[c], buf);
                buf.clear();
                if sent.is_err() {
                    tracer.exit(id);
                    break 'send;
                }
            }
            tracer.exit(id);
            k = end;
        }
        late.truncate(k);
        // EOF after the last request: the daemon answers what it read,
        // then closes, so the receiver never waits on a lost request.
        for w in &writers {
            let _ = w.shutdown(Shutdown::Write);
        }
        (receiver.join().expect("receiver thread"), late)
    });
    tracer.exit(root);

    let last_due_s = plan.last().map_or(0.0, |&(due, _)| due as f64 / 1e9);
    let mut out = Step {
        rate,
        realized: n as f64 / last_due_s.max(1e-9),
        sent: late.len(),
        answered: replies.iter().map(Vec::len).sum(),
        failed: 0,
        lat_ns: Vec::with_capacity(n),
        late_ns: late,
        next,
    };
    let mut next = [0usize; CONNECTIONS];
    for (k, &(due, case)) in plan.iter().enumerate() {
        let c = k % CONNECTIONS;
        let due_at = start + Duration::from_nanos(due);
        let reply = replies[c].get(next[c]);
        next[c] += 1;
        let Some((at, reply)) = reply else {
            out.failed += 1;
            out.lat_ns.push(u64::MAX);
            continue;
        };
        tracer.record("serve.request", due_at, *at, k as u64);
        let ns = at.saturating_duration_since(due_at).as_nanos() as u64;
        if reply_matches(inputs, case, reply).0 {
            out.lat_ns.push(ns);
        } else {
            out.failed += 1;
            out.lat_ns.push(u64::MAX);
        }
    }
    Ok(out)
}

/// Reads replies from every connection until `expected` have arrived in
/// total, every connection closed, or `hard_stop` passed; returns each
/// connection's replies with their arrival times.
fn receive(
    streams: Vec<TcpStream>,
    expected: usize,
    hard_stop: Instant,
) -> Vec<Vec<(Instant, Vec<u8>)>> {
    let mut fds: Vec<poll::PollFd> = streams.iter().map(poll::PollFd::new).collect();
    let mut readers: Vec<FrameReader<TcpStream>> = streams
        .into_iter()
        .map(|s| FrameReader::new(s, MAX_LINE))
        .collect();
    let mut got: Vec<Vec<(Instant, Vec<u8>)>> = vec![Vec::new(); readers.len()];
    let mut open = readers.len();
    let mut total = 0;
    while total < expected && open > 0 && Instant::now() < hard_stop {
        if poll::wait(&mut fds, 50).is_err() {
            break;
        }
        for (c, fd) in fds.iter_mut().enumerate() {
            if !fd.ready() {
                continue;
            }
            loop {
                match readers[c].read_frame() {
                    Ok(Some(line)) => {
                        got[c].push((Instant::now(), line));
                        total += 1;
                    }
                    Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::Interrupted => {}
                    _ => {
                        fd.close();
                        open -= 1;
                        break;
                    }
                }
            }
        }
    }
    got
}

/// `poll(2)`, the one call std does not wrap: the receiver waits on both
/// connections at once without a thread per connection.
mod poll {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    const POLLIN: c_short = 0x001;

    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    impl PollFd {
        pub fn new(stream: &TcpStream) -> PollFd {
            PollFd {
                fd: stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            }
        }

        /// Readable, at EOF, or in error: a read will not block.
        pub fn ready(&self) -> bool {
            self.fd >= 0 && self.revents != 0
        }

        /// Stops polling this descriptor (negative fds are ignored).
        pub fn close(&mut self) {
            self.fd = -1;
        }
    }

    /// Waits up to `timeout_ms` for any descriptor to become ready.
    pub fn wait(fds: &mut [PollFd], timeout_ms: c_int) -> std::io::Result<()> {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` structs laid out as `struct pollfd`, and its length
        // is passed as `nfds`; poll only writes the `revents` fields.
        let r = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if r < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// A valid step at `rate`, retrying up to twice when the generator fell
/// behind; `None` when it never kept up.
pub fn valid_step(
    addr: SocketAddr,
    inputs: &Inputs,
    frames: &[Vec<u8>],
    rate: f64,
    duration: Duration,
    from: usize,
    tracer: &mut Tracer,
) -> io::Result<Option<Step>> {
    for _ in 0..3 {
        let s = step(addr, inputs, frames, rate, duration, from, tracer)?;
        if s.valid() {
            return Ok(Some(s));
        }
        println!(
            "  step {rate:.0} req/s invalid: the generator fell behind (late p99 {:.1} us)",
            s.late_p99_us(),
        );
    }
    Ok(None)
}

/// Rising-rate search for the highest rate that meets the limit: from
/// `start`, steps ×1.25 up while steps pass (or down while they fail),
/// then bisects the bracket. A failed step is run once more before it
/// counts, so one stall of a shared machine does not end the search.
/// Steps run until `budget` is spent. Returns the highest passing step's
/// realized rate, if any step passed, and every step run.
pub fn ladder(
    addr: SocketAddr,
    inputs: &Inputs,
    frames: &[Vec<u8>],
    start: &Step,
    step_len: Duration,
    budget: Duration,
    tracer: &mut Tracer,
) -> io::Result<(Option<f64>, Vec<Step>)> {
    let deadline = Instant::now() + budget;
    let passes = |s: &Step| s.valid() && s.meets_limit();
    let mut best = passes(start).then_some(start.realized);
    let mut low = best.map(|_| start.rate);
    let mut high: Option<f64> = (!passes(start)).then_some(start.rate);
    let mut steps = Vec::new();
    while Instant::now() + step_len <= deadline {
        let rate = match (low, high) {
            (Some(l), None) => l * 1.25,
            (None, Some(h)) => h / 1.25,
            (Some(l), Some(h)) if h / l > 1.04 => (l * h).sqrt(),
            _ => break,
        };
        let mut passed = false;
        for _ in 0..2 {
            let s = step(addr, inputs, frames, rate, step_len, 0, tracer)?;
            passed = passes(&s);
            if passed && best.is_none_or(|b| s.realized > b) {
                best = Some(s.realized);
            }
            steps.push(s);
            if passed {
                break;
            }
        }
        if passed {
            low = Some(rate);
        } else {
            high = Some(rate);
        }
    }
    Ok((best, steps))
}
