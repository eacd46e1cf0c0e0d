//! Traced runs: turns on the program's existing `cnd_obs` spans, and
//! turns the recorded trace into per-layer self-times.

use std::time::Instant;

use cnd_obs::PhaseReport;

/// What one traced call left behind.
pub struct Traced {
    pub phases: PhaseReport,
    pub wall_s: f64,
}

impl Traced {
    /// Self-time of every span with this name, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.phases
            .row(name)
            .map_or(0.0, |r| r.self_time as f64 / 1e6)
    }

    /// Total time of every span with this name, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.phases.row(name).map_or(0.0, |r| r.total as f64 / 1e6)
    }

    /// Wall time no root span covers. Spans on other threads overlap
    /// the caller's, so the residual is floored at zero.
    pub fn unattributed_s(&self) -> f64 {
        (self.wall_s - self.phases.root_total as f64 / 1e6).max(0.0)
    }

    /// Prints the self-time table with the residual on its own line.
    pub fn print(&self, title: &str) {
        println!("== {title}: traced wall {:.3} s", self.wall_s);
        print!("{}", self.phases.render_top(20));
        println!(
            "unattributed (wall not inside any root span): {:.3} s",
            self.unattributed_s()
        );
    }
}

/// Runs `f` with wall-clock tracing on and returns its result with the
/// phase report of everything it recorded.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, Traced) {
    let session = cnd_obs::Session::wall();
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let text = cnd_obs::snapshot_jsonl();
    drop(session);
    let phases = cnd_obs::phase_report(&text).unwrap_or_else(|e| {
        eprintln!("trace did not parse: {e}");
        PhaseReport {
            clock: "wall".into(),
            unit: "us".into(),
            root_total: 0,
            rows: Vec::new(),
        }
    });
    (out, Traced { phases, wall_s })
}
