//! What every workload shares: the run's options, the time-budgeted loop of
//! blocks (a timed set-up, then timed units), the host block and the scratch
//! directory.

use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use sdt::controller::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest blocks (set-up, then timed units) in a run, however short the
/// budget.
const MIN_BLOCKS: usize = 3;

/// Options of one workload run.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Budget of the loop of blocks, set-ups included.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: small inputs, one block of one unit.
    pub quick: bool,
    /// Scratch directory inside the checkout (socket, snapshots).
    pub dir: PathBuf,
    pub cores: usize,
}

/// What [`Ctx::blocks`] measured.
pub struct Blocks<S, U> {
    /// The last block's state, for the output checks.
    pub last: S,
    /// Wall time of every set-up.
    pub setups: Vec<f64>,
    /// Every timed unit, in order.
    pub units: Vec<U>,
}

/// What a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Metrics,
    pub tracer: Tracer,
}

impl Ctx {
    /// The metric list this run reports.
    pub fn new_metrics(&self) -> Metrics {
        Metrics::new(if self.trace { PER_LAYER } else { END_TO_END })
    }

    /// The run's shape: blocks of one timed set-up (`build`, which ends
    /// with the untimed warm-up unit 0) and up to `per_block` timed units on
    /// the state it built, until `share` of the budget is spent — at least
    /// [`MIN_BLOCKS`] whole blocks; one block of one unit when quick. So a
    /// longer run repeats the set-up as often as the units, and state that
    /// grows with use (`sdtd` slows and grows with the requests it has
    /// served) is measured over the same stretch of its life however fast
    /// the host is. Units are numbered 1.. across blocks.
    pub fn blocks<S, U>(
        &self,
        share: f64,
        per_block: usize,
        mut build: impl FnMut() -> S,
        mut unit: impl FnMut(&mut S, usize) -> U,
    ) -> Blocks<S, U> {
        let budget = Duration::from_secs_f64(self.seconds * share);
        let (min_blocks, per_block) = if self.quick {
            (1, 1)
        } else {
            (MIN_BLOCKS, per_block)
        };
        let t0 = Instant::now();
        let (mut setups, mut units) = (Vec::new(), Vec::new());
        let mut last = None;
        loop {
            let spent = setups.len() >= min_blocks && (self.quick || t0.elapsed() >= budget);
            if let Some(state) = last.take() {
                if spent {
                    return Blocks {
                        last: state,
                        setups,
                        units,
                    };
                }
                // Otherwise release it (daemon, tables) before the next set-up.
            }
            let s0 = Instant::now();
            let mut state = build();
            setups.push(s0.elapsed().as_secs_f64());
            for done in 0..per_block {
                // Past the minimum, the budget also ends a block early.
                if done > 0 && setups.len() > min_blocks && t0.elapsed() >= budget {
                    break;
                }
                units.push(unit(&mut state, units.len() + 1));
            }
            last = Some(state);
        }
    }

    /// [`Ctx::blocks`] for code that carries spans: `blocks.units` are the
    /// plain units and the second value the traced ones. An untraced run
    /// leaves the tracer off and `traced` empty; a traced run repeats every
    /// unit with tracing on, so that both halves see the same drift and
    /// their difference is the tracing overhead alone.
    pub fn paired_blocks<S, U>(
        &self,
        share: f64,
        per_block: usize,
        tr: &mut Tracer,
        build: impl FnMut() -> S,
        mut unit: impl FnMut(&mut S, usize, &mut Tracer) -> U,
    ) -> (Blocks<S, U>, Vec<U>) {
        let pairs = self.blocks(share, per_block, build, |state, i| {
            let mut run = |on: bool, tr: &mut Tracer| {
                tr.set_enabled(on);
                tr.set_request(i as u64);
                unit(state, i, tr)
            };
            let p = run(false, tr);
            (p, self.trace.then(|| run(true, tr)))
        });
        tr.set_enabled(false);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for (p, t) in pairs.units {
            plain.push(p);
            traced.extend(t);
        }
        let blocks = Blocks {
            last: pairs.last,
            setups: pairs.setups,
            units: plain,
        };
        (blocks, traced)
    }

    /// Width of a load generator that wants `wanted` threads or
    /// connections: never more than the host has cores, because a wider
    /// generator measures the scheduler, not the system.
    pub fn generators(&self, wanted: usize) -> usize {
        wanted.min(self.cores)
    }

    /// The end-to-end metrics every workload reports the same way.
    pub fn common_end_to_end(&self, m: &mut Metrics, setups: &[f64], rates: &[f64]) {
        if self.trace {
            return;
        }
        m.set_fast("setup_s", setups);
        m.set_fast("work_per_s", rates);
        m.set("peak_rss_mb", peak_rss_mb());
    }

    /// The per-layer metrics every workload reports the same way: unit wall
    /// with tracing off (`plain`) and on (`traced`), and their difference.
    pub fn common_per_layer(&self, m: &mut Metrics, plain: &[f64], traced: &[f64]) {
        m.set_fast("unit_wall_s", plain);
        m.set("units", (plain.len() + traced.len()) as f64);
        let base = stats::median(plain);
        m.set(
            "trace_overhead_share",
            (stats::median(traced) - base) / base,
        );
        m.set("verify.threads", sdt::verify::verify_threads() as f64);
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type holding `dir`: the longest mount point that prefixes it.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Where and how this ran; part of every output.
pub fn host_block(ctx: &Ctx) -> Json {
    Json::Obj(vec![
        ("nproc".into(), Json::u64(ctx.cores as u64)),
        ("rustc".into(), Json::str(command_line("rustc", &["-V"]))),
        (
            "commit".into(),
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("scratch_fs".into(), Json::str(fs_type(&ctx.dir))),
        (
            "verify_threads".into(),
            Json::u64(sdt::verify::verify_threads() as u64),
        ),
        // What `EstimateConfig::threads = 0` resolves to.
        (
            "estimate_threads".into(),
            Json::u64(sdt_par::threads_from_env("SDT_ESTIMATE_THREADS") as u64),
        ),
        ("seed".into(), Json::u64(ctx.seed)),
    ])
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(quick: bool, trace: bool) -> Ctx {
        Ctx {
            seed: 1,
            seconds: 0.0,
            trace,
            quick,
            dir: PathBuf::from("."),
            cores: 2,
        }
    }

    #[test]
    fn blocks_repeat_the_set_up_and_respect_the_minimum() {
        // Zero budget: the minimum of whole blocks still runs, units
        // numbered from 1 across blocks, each on its own block's state.
        let mut built = 0;
        let b = ctx(false, false).blocks(
            1.0,
            2,
            || {
                built += 1;
                built * 10
            },
            |state, i| *state + i,
        );
        assert_eq!(b.setups.len(), MIN_BLOCKS);
        assert_eq!(b.units, vec![11, 12, 23, 24, 35, 36]);
        assert_eq!(b.last, 30);
        let q = ctx(true, false).blocks(1.0, 5, || (), |(), i| i);
        assert_eq!((q.setups.len(), q.units), (1, vec![1]));
    }

    #[test]
    fn traced_runs_pair_every_unit() {
        let mut tr = Tracer::new(false);
        let (b, traced) = ctx(false, true).paired_blocks(1.0, 1, &mut tr, || (), |(), i, _| i);
        assert_eq!((b.units, traced), (vec![1, 2, 3], vec![1, 2, 3]));
        let (b, traced) = ctx(false, false).paired_blocks(1.0, 1, &mut tr, || (), |(), i, _| i);
        assert_eq!((b.units.len(), traced.len()), (3, 0));
    }

    #[test]
    fn generators_never_exceed_cores() {
        assert_eq!(ctx(false, false).generators(2), 2);
        assert_eq!(ctx(false, false).generators(8), 2);
    }
}
