//! Client connections and the request driver.
//!
//! The driver sends each request at its *intended* time and times it
//! from then, not from when it actually left: a server stall delays
//! every request queued behind it, and that wait must show in their
//! latencies (Schroeder et al., NSDI '06; Tene's "coordinated
//! omission"). One connection is driven by one thread, which sends when
//! a request falls due and otherwise waits for responses until the next
//! due time, so an open loop needs no extra threads.
//!
//! Linux only, like the rest of the driver: it waits with `ppoll` and
//! reads `/proc`.

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use ivme_cli::proto;

/// One framed server response: `ok` payload or `err` message.
pub use ivme_cli::proto::Response;

/// A client connection that sends without waiting and receives with a
/// deadline. Blocking one-off requests use `ivme_workload::Client`.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
        })
    }

    /// Writes request text (one or more newline-terminated lines).
    pub fn send(&mut self, text: &str) -> io::Result<()> {
        self.writer.write_all(text.as_bytes())
    }

    /// The next response, waiting until `deadline` at most (forever when
    /// `None`); `Ok(None)` when the deadline passed before any of it
    /// arrived. A response that has begun to arrive is read to its end.
    pub fn recv(&mut self, deadline: Option<Instant>) -> io::Result<Option<Response>> {
        if let Some(d) = deadline {
            if self.reader.buffer().is_empty() {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() || !wait_readable(self.reader.get_ref(), left)? {
                    return Ok(None);
                }
            }
        }
        match proto::read_response(&mut self.reader)? {
            Some(r) => Ok(Some(r)),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }
}

/// Waits until `stream` has bytes to read (or is closed), for at most
/// `timeout`; `false` on timeout. `ppoll` takes a nanosecond timeout and
/// sleeps on a high-resolution timer, where a socket read timeout would
/// round up to the next scheduler tick and make the generator late.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out locals for the
    // duration of the call; one descriptor is passed; a null signal mask
    // leaves the mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// One request: its text and how many framed responses it produces (a
/// `.batch begin … commit` script answers every line).
pub struct Req {
    pub text: String,
    pub responses: usize,
}

impl Req {
    /// A request made of the given newline-terminated command lines.
    pub fn script(text: String) -> Req {
        let responses = text.lines().count();
        Req { text, responses }
    }

    #[cfg(test)]
    pub fn line(line: &str) -> Req {
        Req {
            text: format!("{line}\n"),
            responses: 1,
        }
    }
}

/// When requests are sent.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Request i is due at `origin + i · interval`, whatever came back.
    Open { interval: Duration },
    /// The next request goes when the previous one has completed; none
    /// starts after `until`.
    Closed { until: Instant },
}

/// One completed request, as offsets from the run's origin.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub intended: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// Every response was `ok` and the caller's check accepted the last.
    pub ok: bool,
}

impl Timing {
    /// Latency from the intended send time, in microseconds.
    pub fn latency_us(&self) -> f64 {
        (self.done.saturating_sub(self.intended)).as_secs_f64() * 1e6
    }

    /// How late the generator sent the request, in microseconds.
    pub fn late_us(&self) -> f64 {
        (self.sent.saturating_sub(self.intended)).as_secs_f64() * 1e6
    }
}

struct InFlight {
    index: usize,
    intended: Duration,
    sent: Duration,
    left: usize,
    ok: bool,
}

/// Drives one connection: `next(i)` yields request i (or `None` when
/// the stream ends), `check(i, done, last_response)` judges each
/// completed request. Returns one [`Timing`] per request, in order.
pub fn drive(
    conn: &mut Conn,
    origin: Instant,
    pace: Pace,
    next: &mut dyn FnMut(usize) -> Option<Req>,
    check: &mut dyn FnMut(usize, Duration, &Response) -> bool,
) -> io::Result<Vec<Timing>> {
    let mut out = Vec::new();
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut index = 0;
    let mut pending = next(0);
    loop {
        let now = Instant::now();
        match pace {
            Pace::Open { interval } => {
                while let Some(req) = pending.take() {
                    let due = interval * index as u32;
                    let now = Instant::now();
                    if now < origin + due {
                        pending = Some(req);
                        break;
                    }
                    conn.send(&req.text)?;
                    inflight.push_back(InFlight {
                        index,
                        intended: due,
                        sent: now - origin,
                        left: req.responses,
                        ok: true,
                    });
                    index += 1;
                    pending = next(index);
                }
            }
            Pace::Closed { until } => {
                if inflight.is_empty() {
                    if now >= until {
                        pending = None;
                    }
                    if let Some(req) = pending.take() {
                        let at = Instant::now() - origin;
                        conn.send(&req.text)?;
                        inflight.push_back(InFlight {
                            index,
                            intended: at,
                            sent: at,
                            left: req.responses,
                            ok: true,
                        });
                        index += 1;
                        pending = next(index);
                    }
                }
            }
        }
        if pending.is_none() && inflight.is_empty() {
            return Ok(out);
        }
        let deadline = match pace {
            Pace::Open { interval } if pending.is_some() => Some(origin + interval * index as u32),
            _ => None,
        };
        if inflight.is_empty() {
            // Nothing can arrive: sleep until the next request is due.
            if let Some(d) = deadline {
                if let Some(left) = d.checked_duration_since(Instant::now()) {
                    std::thread::sleep(left);
                }
            }
            continue;
        }
        let Some(resp) = conn.recv(deadline)? else {
            continue;
        };
        let done = Instant::now() - origin;
        let head = inflight
            .front_mut()
            .expect("a response arrived with no request in flight");
        head.left -= 1;
        head.ok &= resp.is_ok();
        if head.left == 0 {
            let head = inflight.pop_front().expect("checked above");
            let ok = check(head.index, done, &resp) && head.ok;
            out.push(Timing {
                intended: head.intended,
                sent: head.sent,
                done,
                ok,
            });
        }
    }
}

/// Lowers this thread's timer slack to 1 ns so that timed waits wake
/// when asked, not up to 50 µs later (the Linux default); a late wake
/// would be charged to the server as latency.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A line server that answers `ok 0` to every line, but stalls for
    /// `stall` before answering line `stall_at`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            let mut i = 0;
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap() == 0 {
                    return;
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                writer.write_all(b"ok 0\n").unwrap();
                i += 1;
            }
        });
        (addr, handle)
    }

    #[test]
    fn an_injected_stall_shows_in_the_requests_queued_behind_it() {
        tighten_timer_slack();
        let (stall_at, stall, n) = (100, Duration::from_millis(100), 300);
        let interval = Duration::from_millis(1);
        let (addr, server) = stalling_server(stall_at, stall);
        let mut conn = Conn::connect(addr).unwrap();
        let timings = drive(
            &mut conn,
            Instant::now(),
            Pace::Open { interval },
            &mut |i| (i < n).then(|| Req::line("count")),
            &mut |_, _, r| r.is_ok(),
        )
        .unwrap();
        drop(conn);
        server.join().unwrap();
        assert_eq!(timings.len(), n);
        assert!(timings.iter().all(|t| t.ok));
        // The stalled request and every request due during the stall
        // waited for it: request i was due (i − stall_at) ms into it.
        let ms = |t: &Timing| t.latency_us() / 1e3;
        for (k, t) in timings[stall_at..stall_at + 80].iter().enumerate() {
            let waited = 100.0 - k as f64;
            assert!(
                ms(t) >= waited - 5.0,
                "request {} took {:.1} ms, expected at least {:.1} ms",
                stall_at + k,
                ms(t),
                waited - 5.0
            );
        }
        // The generator kept its schedule: the queued requests were sent
        // on time, so the wait is the server's, not the driver's.
        for t in &timings[stall_at..stall_at + 80] {
            assert!(t.late_us() < 20_000.0, "sent {:.0} µs late", t.late_us());
        }
        // Well after the stall the queue has drained again.
        let mut tail: Vec<f64> = timings[n - 50..].iter().map(ms).collect();
        tail.sort_by(f64::total_cmp);
        assert!(tail[25] < 5.0, "median after the stall {:.1} ms", tail[25]);
    }

    #[test]
    fn closed_loop_waits_for_each_response() {
        let (addr, server) = stalling_server(usize::MAX, Duration::ZERO);
        let mut conn = Conn::connect(addr).unwrap();
        let origin = Instant::now();
        let until = origin + Duration::from_millis(50);
        let timings = drive(
            &mut conn,
            origin,
            Pace::Closed { until },
            &mut |_| Some(Req::script("count\ncount\n".to_owned())),
            &mut |_, _, r| r.is_ok(),
        )
        .unwrap();
        drop(conn);
        server.join().unwrap();
        assert!(!timings.is_empty());
        for w in timings.windows(2) {
            assert!(w[1].sent >= w[0].done, "closed loop overlapped requests");
        }
        assert!(timings.iter().all(|t| t.ok && t.late_us() == 0.0));
    }
}
