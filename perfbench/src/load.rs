//! Load generation over one pipelined connection: one writer thread,
//! one reply-reader thread, and the caller's tick on the main thread.

use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cnd_serve::protocol::{read_reply, write_request};
use cnd_serve::{Reply, Request};

use crate::sys::{micros, thread_cpu_s};

/// A score reply, stamped with its arrival time since the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    pub at: Duration,
    pub version: u32,
    pub score: f64,
}

/// What came back for each flow of an open-loop phase.
#[derive(Debug)]
pub struct LoadRun {
    /// Per flow id: the score reply, an error/shed reply (`Err`), or
    /// nothing when no reply arrived.
    pub replies: Vec<Option<Result<Scored, String>>>,
    /// Replies carrying an id that was already answered or never sent.
    pub stray: u64,
    /// How late the writer sent its most delayed flow.
    pub late_max_us: f64,
    /// Transport failure that cut the phase short, if any.
    pub error: Option<String>,
    /// CPU time the load generator itself used: the writer, the reader
    /// and the main thread outside `tick`.
    pub gen_cpu_s: f64,
}

/// Sends flow `i` with `features(i)` at `start + due[i]` whether or not
/// earlier flows have been answered (open loop). The main thread calls
/// `tick(elapsed, newest)` every `tick_every` until the writer is done and
/// every reply is in, or `drain` has passed since the last send; `newest`
/// is the highest model version any reply has carried so far.
pub fn open_loop(
    addr: SocketAddr,
    due: &[Duration],
    features: &(dyn Fn(usize) -> Vec<f64> + Sync),
    tick_every: Duration,
    drain: Duration,
    mut tick: impl FnMut(Duration, u32),
) -> io::Result<LoadRun> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let n = due.len();
    let start = Instant::now() + Duration::from_millis(5);
    let newest = AtomicU32::new(0);

    std::thread::scope(|s| {
        let writer = s.spawn(|| -> io::Result<(f64, f64)> {
            let cpu = thread_cpu_s();
            let mut w = BufWriter::new(&stream);
            let mut late_max = 0.0f64;
            for (i, d) in due.iter().enumerate() {
                let at = start + *d;
                let now = Instant::now();
                if at > now {
                    w.flush()?;
                    std::thread::sleep(at - now);
                }
                late_max = late_max.max(micros(Instant::now().saturating_duration_since(at)));
                write_request(
                    &mut w,
                    &Request::Score {
                        id: i as u64,
                        features: features(i),
                    },
                )?;
            }
            w.flush()?;
            Ok((late_max, thread_cpu_s() - cpu))
        });
        let newest = &newest;
        let reader = s.spawn(move || {
            let cpu = thread_cpu_s();
            let mut r = BufReader::new(read_half);
            let mut replies: Vec<Option<Result<Scored, String>>> = vec![None; n];
            let (mut answered, mut stray) = (0usize, 0u64);
            let mut error = None;
            while answered < n {
                let reply = match read_reply(&mut r) {
                    Ok(reply) => reply,
                    Err(e) => {
                        error = Some(e.to_string());
                        break;
                    }
                };
                let at = Instant::now().saturating_duration_since(start);
                let (id, outcome) = match reply {
                    Reply::Score {
                        id,
                        model_version,
                        score,
                        ..
                    } => {
                        newest.fetch_max(model_version, Ordering::Relaxed);
                        (
                            id,
                            Ok(Scored {
                                at,
                                version: model_version,
                                score,
                            }),
                        )
                    }
                    other => (reply_id(&other), Err(format!("{other:?}"))),
                };
                match replies.get_mut(id as usize) {
                    Some(slot @ None) => {
                        *slot = Some(outcome);
                        answered += 1;
                    }
                    _ => stray += 1,
                }
            }
            (replies, stray, error, thread_cpu_s() - cpu)
        });

        let main_cpu = thread_cpu_s();
        let mut tick_cpu = 0.0;
        let mut next_tick = start + tick_every;
        let mut drain_deadline = None;
        loop {
            let now = Instant::now();
            if now >= next_tick {
                let cpu = thread_cpu_s();
                tick(
                    now.saturating_duration_since(start),
                    newest.load(Ordering::Relaxed),
                );
                tick_cpu += thread_cpu_s() - cpu;
                while next_tick <= now {
                    next_tick += tick_every;
                }
            }
            if writer.is_finished() {
                let deadline = *drain_deadline.get_or_insert(now + drain);
                if reader.is_finished() || now >= deadline {
                    break;
                }
            }
            let nap = next_tick.saturating_duration_since(Instant::now());
            std::thread::sleep(nap.min(Duration::from_millis(2)));
        }
        let main_cpu = thread_cpu_s() - main_cpu - tick_cpu;
        // Unblocks a reader still waiting for replies that never came.
        let _ = stream.shutdown(Shutdown::Both);
        let written = writer.join().expect("writer thread panicked");
        let (replies, stray, read_error, read_cpu) = reader.join().expect("reader thread panicked");
        let (late_max_us, write_cpu, error) = match written {
            Err(e) => (0.0, 0.0, Some(format!("send failed: {e}"))),
            Ok((late, cpu)) => (
                late,
                cpu,
                read_error.filter(|_| replies.iter().any(Option::is_none)),
            ),
        };
        Ok(LoadRun {
            replies,
            stray,
            late_max_us,
            error,
            gen_cpu_s: main_cpu + write_cpu + read_cpu,
        })
    })
}

fn reply_id(reply: &Reply) -> u64 {
    match *reply {
        Reply::Score { id, .. }
        | Reply::BadRequest { id, .. }
        | Reply::Overloaded { id }
        | Reply::ReloadOk { id, .. }
        | Reply::ReloadFailed { id, .. }
        | Reply::Info { id, .. } => id,
    }
}

/// Saturation pass: keeps `window` requests in flight on one connection
/// for `span` and returns the flows per second answered.
pub fn capacity(
    addr: SocketAddr,
    features: &(dyn Fn(usize) -> Vec<f64> + Sync),
    window: u64,
    span: Duration,
) -> io::Result<f64> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let received = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut r = BufReader::new(read_half);
            while read_reply(&mut r).is_ok() {
                received.fetch_add(1, Ordering::Release);
            }
        });
        let mut w = BufWriter::new(&stream);
        let mut sent = 0u64;
        while start.elapsed() < span {
            if sent - received.load(Ordering::Acquire) < window {
                let features = features(sent as usize);
                write_request(&mut w, &Request::Score { id: sent, features })?;
                sent += 1;
            } else {
                w.flush()?;
                std::thread::yield_now();
            }
        }
        w.flush()?;
        let deadline = Instant::now() + Duration::from_secs(5);
        while received.load(Ordering::Acquire) < sent && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let _ = stream.shutdown(Shutdown::Both);
        reader.join().expect("reader thread panicked");
        Ok(received.load(Ordering::Acquire) as f64 / elapsed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnd_serve::protocol::{read_request, write_reply};
    use cnd_serve::Verdict;
    use std::net::TcpListener;

    /// Answers each score request with `score = id`, stalling once for
    /// `stall` before it answers request `stall_at`.
    fn stub_server(stall_at: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            conn.set_nodelay(true).expect("nodelay");
            let mut r = BufReader::new(conn.try_clone().expect("clone"));
            let mut w = conn;
            while let Ok(req) = read_request(&mut r) {
                let id = req.id();
                if id == stall_at {
                    std::thread::sleep(stall);
                }
                let reply = Reply::Score {
                    id,
                    model_version: 1,
                    score: id as f64,
                    verdict: Verdict::Normal,
                };
                if write_reply(&mut w, &reply).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_raises_the_latency_of_later_flows() {
        let (addr, server) = stub_server(100, Duration::from_millis(60));
        // One flow every 500 µs: flow 100 is due at 50 ms, when the
        // server stalls until ~110 ms; flows due in between queue up.
        let due: Vec<Duration> = (0..400).map(|i| Duration::from_micros(500 * i)).collect();
        let features = |_: usize| vec![1.0; 4];
        let mut ticks = 0;
        let run = open_loop(
            addr,
            &due,
            &features,
            Duration::from_millis(10),
            Duration::from_secs(2),
            |_, _| ticks += 1,
        )
        .expect("load runs");
        server.join().expect("stub server");
        assert!(run.error.is_none(), "{:?}", run.error);
        assert_eq!(run.stray, 0);
        for (i, r) in run.replies.iter().enumerate() {
            let s = r.clone().expect("every flow answered").expect("scored");
            assert_eq!(s.score, i as f64, "reply matched to its flow");
        }
        assert!(ticks > 0, "main-thread tick ran");
        let lat: Vec<f64> = run
            .replies
            .iter()
            .zip(&due)
            .map(|(r, d)| match r {
                Some(Ok(s)) => micros(s.at.saturating_sub(*d)),
                _ => f64::NAN,
            })
            .collect();
        // Flow 150 was sent on time at 75 ms but waited out the stall:
        // timed from its due time, it carries that wait.
        assert!(lat[150] > 20_000.0, "flow 150: {} us", lat[150]);
        assert!(lat[100] > 40_000.0, "flow 100: {} us", lat[100]);
        assert!(lat[50] < 15_000.0, "flow 50: {} us", lat[50]);
        assert!(lat[399] < 15_000.0, "flow 399: {} us", lat[399]);
    }

    #[test]
    fn missing_replies_are_reported_not_awaited_forever() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Accepts, reads everything, never answers.
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let mut r = BufReader::new(conn);
            while read_request(&mut r).is_ok() {}
        });
        let due: Vec<Duration> = (0..10).map(Duration::from_millis).collect();
        let features = |_: usize| vec![0.5; 3];
        let run = open_loop(
            addr,
            &due,
            &features,
            Duration::from_millis(5),
            Duration::from_millis(100),
            |_, _| {},
        )
        .expect("load runs");
        server.join().expect("stub server");
        assert!(run.replies.iter().all(Option::is_none));
        assert!(run.error.is_some());
    }
}
