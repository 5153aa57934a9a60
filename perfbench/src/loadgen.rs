//! The benchmark's own open-loop client.
//!
//! One thread drives at most `connections` keep-alive connections with
//! HTTP/1.1 pipelining: a request is written when its intended send time
//! comes, whether or not earlier answers have arrived, so queues form in
//! the server and not in the client. Latency is charged from the
//! intended send time, so a server stall is also charged to every
//! request due during it. Readiness comes from the repository's own
//! poller ([`etude_serve::reactor::new_poller`]).

use crate::schedule::{Phase, Planned};
use bytes::Bytes;
use etude_serve::reactor::{new_poller, Interest, Poller};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Longest sleep between non-blocking polls in the last two
/// milliseconds before a send: bounds how late an answer that arrives
/// then is read.
const SHORT_SLEEP: Duration = Duration::from_micros(100);

/// What happened to one scheduled request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When the request's last byte was handed to the socket.
    pub sent: Option<Instant>,
    /// When its complete answer was read.
    pub done: Option<Instant>,
    /// HTTP status; 0 when no well-formed answer arrived.
    pub status: u16,
    /// `x-brownout-level` (0 when absent).
    pub level: u8,
    /// Carried `x-degraded`.
    pub degraded: bool,
    /// `x-request-id` echoed back matched the request's.
    pub id_matched: bool,
    /// Response body.
    pub body: Bytes,
    /// Full response length on the wire.
    pub wire_bytes: usize,
}

/// The record of one driven schedule.
#[derive(Debug)]
pub struct RunLog {
    /// Schedule start: intended send time of offset zero.
    pub start: Instant,
    /// One outcome per planned request, same order.
    pub outcomes: Vec<Outcome>,
    /// Most requests outstanding at once, over all connections.
    pub inflight_max: usize,
    /// Connections lost mid-run (their outstanding requests got no
    /// answer).
    pub transport_errors: u64,
}

impl RunLog {
    /// Intended send instant of request `i` of `plan`.
    pub fn intended(&self, plan: &[Planned], i: usize) -> Instant {
        self.start + plan[i].at
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// (end offset in `out`, request index) of requests not fully written.
    unsent: VecDeque<(usize, usize)>,
    /// Requests written or queued, in answer order.
    pending: VecDeque<usize>,
    inbuf: Vec<u8>,
    wants_write: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(64 * 1024),
            out_pos: 0,
            unsent: VecDeque::new(),
            pending: VecDeque::new(),
            inbuf: Vec::with_capacity(64 * 1024),
            wants_write: false,
        })
    }

    /// Writes as much queued output as the socket takes, stamping the
    /// requests whose last byte went out.
    fn flush(&mut self, outcomes: &mut [Outcome]) -> std::io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let now = Instant::now();
        while let Some(&(end, idx)) = self.unsent.front() {
            if end > self.out_pos {
                break;
            }
            outcomes[idx].sent = Some(now);
            self.unsent.pop_front();
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads everything available; `Ok(false)` on end of stream.
    fn fill(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// One framed response.
#[derive(Debug, PartialEq)]
pub struct Frame {
    /// Status code.
    pub status: u16,
    /// `x-brownout-level`, 0 when absent.
    pub level: u8,
    /// `x-degraded` present.
    pub degraded: bool,
    /// `x-request-id`, when present.
    pub request_id: Option<String>,
    /// Body bytes.
    pub body: Bytes,
    /// Bytes consumed from the buffer.
    pub len: usize,
}

/// Frames one response off the front of `buf`: `Ok(None)` when more
/// bytes are needed, `Err` when the bytes are not an HTTP/1.1 response.
pub fn parse_frame(buf: &[u8]) -> Result<Option<Frame>, &'static str> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "non-utf8 head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty head")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let mut content_length = None;
    let mut level = 0u8;
    let mut degraded = false;
    let mut request_id = None;
    for line in lines {
        let (k, v) = line.split_once(':').ok_or("header without colon")?;
        let v = v.trim();
        match k.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = Some(v.parse::<usize>().map_err(|_| "bad length")?)
            }
            "x-brownout-level" => level = v.parse().map_err(|_| "bad brownout level")?,
            "x-degraded" => degraded = true,
            "x-request-id" => request_id = Some(v.to_string()),
            _ => {}
        }
    }
    let body_len = content_length.ok_or("no content-length")?;
    let total = head_len + 4 + body_len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some(Frame {
        status,
        level,
        degraded,
        request_id,
        body: Bytes::copy_from_slice(&buf[head_len + 4..total]),
        len: total,
    }))
}

/// Drives `plan` open-loop against `addr`. `on_phase` runs on the
/// client thread just before the first request of each phase is sent.
/// After the last send the client waits up to `drain` for answers;
/// requests still unanswered then are stragglers (status 0).
pub fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    connections: usize,
    drain: Duration,
    on_phase: &mut dyn FnMut(Phase),
) -> std::io::Result<RunLog> {
    let mut poller: Box<dyn Poller> = new_poller()?;
    let mut conns = Vec::with_capacity(connections.max(1));
    for token in 0..connections.max(1) {
        let conn = Conn::open(addr)?;
        poller.register(conn.stream.as_raw_fd(), token, Interest::READ)?;
        conns.push(conn);
    }
    let mut outcomes = vec![Outcome::default(); plan.len()];
    let mut events = Vec::with_capacity(16);
    let mut next = 0usize;
    let mut phase = None;
    let mut inflight_max = 0usize;
    let mut transport_errors = 0u64;
    let start = Instant::now() + Duration::from_millis(5);
    let mut drain_until = None;

    loop {
        let now = Instant::now();
        // Send everything that is due, to the least-loaded connection.
        while next < plan.len() && start + plan[next].at <= now {
            if phase != Some(plan[next].phase) {
                phase = Some(plan[next].phase);
                on_phase(plan[next].phase);
            }
            let conn = conns
                .iter_mut()
                .min_by_key(|c| c.pending.len())
                .expect("at least one connection");
            conn.out.extend_from_slice(&plan[next].wire);
            conn.unsent.push_back((conn.out.len(), next));
            conn.pending.push_back(next);
            next += 1;
        }
        let inflight: usize = conns.iter().map(|c| c.pending.len()).sum();
        inflight_max = inflight_max.max(inflight);
        for (token, conn) in conns.iter_mut().enumerate() {
            if conn.out_pos < conn.out.len() && conn.flush(&mut outcomes).is_err() {
                transport_errors += 1;
                let fresh = reopen(addr, &mut *poller, token, conn)?;
                *conn = fresh;
                continue;
            }
            let wants_write = conn.out_pos < conn.out.len();
            if wants_write != conn.wants_write {
                let interest = if wants_write {
                    Interest::BOTH
                } else {
                    Interest::READ
                };
                poller.modify(conn.stream.as_raw_fd(), token, interest)?;
                conn.wants_write = wants_write;
            }
        }
        if next == plan.len() {
            let outstanding: usize = conns.iter().map(|c| c.pending.len()).sum();
            if outstanding == 0 {
                break;
            }
            let until = *drain_until.get_or_insert(Instant::now() + drain);
            if Instant::now() >= until {
                break;
            }
        }

        // Wait for readiness or the next send time. The poller's timeout
        // has millisecond resolution, so the last stretch before a send
        // is slept in short steps between non-blocking polls; the client
        // never spins, which would take a core from the server.
        let timeout = if next < plan.len() {
            (start + plan[next].at).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(10)
        };
        if timeout >= Duration::from_millis(2) {
            poller.wait(&mut events, timeout - Duration::from_millis(1))?;
        } else if poller.wait(&mut events, Duration::ZERO)? == 0 {
            std::thread::sleep(timeout.min(SHORT_SLEEP));
        }
        for ev in events.iter().copied() {
            let conn = &mut conns[ev.token];
            let mut failed = ev.writable && conn.flush(&mut outcomes).is_err();
            if !failed && (ev.readable || ev.closed) {
                let open = conn.fill().unwrap_or(false);
                let done = Instant::now();
                let mut consumed = 0;
                loop {
                    match parse_frame(&conn.inbuf[consumed..]) {
                        Ok(Some(frame)) => {
                            consumed += frame.len;
                            let Some(idx) = conn.pending.pop_front() else {
                                failed = true;
                                break;
                            };
                            let o = &mut outcomes[idx];
                            o.done = Some(done);
                            o.status = frame.status;
                            o.level = frame.level;
                            o.degraded = frame.degraded;
                            o.id_matched =
                                frame.request_id.as_deref() == Some(&plan[idx].id.to_string());
                            o.body = frame.body;
                            o.wire_bytes = frame.len;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
                conn.inbuf.drain(..consumed);
                failed |= !open;
            }
            if failed {
                transport_errors += 1;
                let fresh = reopen(addr, &mut *poller, ev.token, conn)?;
                *conn = fresh;
            }
        }
    }
    for conn in &conns {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
    Ok(RunLog {
        start,
        outcomes,
        inflight_max,
        transport_errors,
    })
}

/// Replaces a failed connection. Requests it still owed stay
/// unanswered (status 0); queued but unsent ones are dropped with it.
fn reopen(
    addr: SocketAddr,
    poller: &mut dyn Poller,
    token: usize,
    old: &Conn,
) -> std::io::Result<Conn> {
    let _ = poller.deregister(old.stream.as_raw_fd());
    let conn = Conn::open(addr)?;
    poller.register(conn.stream.as_raw_fd(), token, Interest::READ)?;
    Ok(conn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_pipelined_responses_and_waits_for_partial_ones() {
        let a = b"HTTP/1.1 200 OK\r\nx-brownout-level: 2\r\ncontent-length: 3\r\nx-request-id: 7\r\n\r\n1:2";
        let b = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        let mut buf = a.to_vec();
        buf.extend_from_slice(b);
        let first = parse_frame(&buf).unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.level, 2);
        assert_eq!(first.request_id.as_deref(), Some("7"));
        assert_eq!(&first.body[..], b"1:2");
        let second = parse_frame(&buf[first.len..]).unwrap().unwrap();
        assert_eq!(second.status, 503);
        assert_eq!(first.len + second.len, buf.len());
        assert_eq!(parse_frame(&a[..a.len() - 1]).unwrap(), None);
        assert!(parse_frame(b"garbage\r\n\r\n").is_err());
    }
}
