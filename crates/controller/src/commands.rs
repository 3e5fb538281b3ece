//! The operator commands `sdtctl` and `sdtd` share: `slices`,
//! `reconfigure` and multi-config `verify`, each implemented once over a
//! `&mut SliceController`.
//!
//! Local `sdtctl` calls a command on a fresh controller wired from the
//! first config file and prints the result; the daemon calls the same
//! command on its persistent controller and ships the result over the
//! wire. The daemon's promise — `sdtctl --daemon <socket> <cmd>` prints
//! byte-for-byte what local `sdtctl <cmd>` prints and fails with the same
//! reason — therefore holds by construction: there is no second
//! implementation to keep equal. A command never prints and never touches
//! a file; what a caller needs beyond the text (which config became which
//! slice, how large the admission batch was) comes back in [`Done`].

use crate::output::{self, AdmitInfo, AdmitRow, StatsBlock};
use crate::slices::BatchItem;
use crate::{SliceController, TestbedConfig};
use sdt_openflow::{ControlChannel, ControlConfig};
use sdt_tenancy::{OpOutcome, SliceId};

/// One config file handed to a command: the path the operator named and
/// the parsed file, or why it did not parse. (Local mode refuses an
/// unparsable file before calling; the daemon parses wire text and lets
/// the command report the failure in that file's row.)
pub type ConfigItem = (String, Result<TestbedConfig, String>);

/// A finished command.
#[derive(Debug, Default)]
pub struct Done {
    /// The rendered report, without a trailing newline; empty when the
    /// command failed before it had anything to report.
    pub output: String,
    /// Why the command failed (non-zero exit locally, `ok:false` on the
    /// wire); the report is still printed when there is one.
    pub error: Option<String>,
    /// `(index into the command's configs, slice)` for every slice that
    /// now runs that config, in the order it happened — what the daemon
    /// persists. `reconfigure` numbers its `from` config 0 and `to` 1.
    pub installed: Vec<(usize, SliceId)>,
    /// Operations that reached `SliceManager::apply_batch` together.
    pub batch_ops: u64,
}

impl Done {
    fn fail(mut self, error: String) -> Done {
        self.error = Some(error);
        self
    }
}

/// Admit every parsable config as a slice named after its topology — one
/// [`SliceController::apply_batch`], so one static proof for the lot —
/// and return one row per config, in order.
fn admit(ctl: &mut SliceController, configs: &[ConfigItem], done: &mut Done) -> Vec<AdmitRow> {
    let batch = configs
        .iter()
        .map(|(_, cfg)| {
            cfg.as_ref().map_err(String::clone).map(|c| BatchItem::Admit {
                name: c.topology.name().to_string(),
                topo: c.topology.clone(),
                strategy: c.strategy.clone(),
            })
        })
        .collect();
    let (verdicts, reached) = ctl.apply_batch(batch);
    done.batch_ops = reached as u64;
    let mut rows = Vec::with_capacity(configs.len());
    for (i, ((path, cfg), verdict)) in configs.iter().zip(verdicts).enumerate() {
        let result = match verdict {
            Ok(OpOutcome::Created(id)) => match ctl.manager().slice(id) {
                Some(s) => {
                    done.installed.push((i, id));
                    Ok(AdmitInfo::of(s))
                }
                None => unreachable!("apply_batch returned a live slice id"),
            },
            Ok(_) => unreachable!("an admission is answered with `Created`"),
            Err(e) => Err(e.to_string()),
        };
        let slice = cfg.as_ref().map_or("<invalid>", |c| c.topology.name()).to_string();
        rows.push(AdmitRow { path: path.clone(), slice, result });
    }
    rows
}

/// `sdtctl slices`: admit every config as one slice of the shared cluster,
/// then report admissions, occupancy, and the static proof the admission
/// gate just installed (cached — nothing is walked or injected). Fails if
/// any slice is rejected, the proof does not hold, or the tables hold
/// entries no slice owns.
pub fn slices(ctl: &mut SliceController, configs: &[ConfigItem], json: bool) -> Done {
    let mut done = Done::default();
    let rows = admit(ctl, configs, &mut done);
    let rejected = rows.iter().filter(|r| r.result.is_err()).count();
    let status = ctl.status();
    let verify = ctl.manager_mut().verify_report();
    done.output = if json {
        output::slices_json(&rows, &status, &verify)
    } else {
        output::slices_human(&rows, &status, &verify)
    };
    done.error = if rejected > 0 {
        Some(format!("{rejected} slice(s) rejected"))
    } else if !verify.holds() {
        Some("static verification failed".into())
    } else if status.orphan_entries > 0 {
        Some(format!("{} orphan table entries", status.orphan_entries))
    } else {
        None
    };
    done
}

/// `sdtctl reconfigure`: migrate the slice named after the `from` config's
/// topology — admitting it first when no such slice exists, which on a
/// fresh controller is always — to the `to` config's topology, then report
/// the epoch. One shot by default; with `scheduled`, as dependency-ordered,
/// individually proven rounds over a control channel of that profile
/// (drop and reorder probabilities, seed), and the report lists every
/// round.
pub fn reconfigure(
    ctl: &mut SliceController,
    from_path: &str,
    from: &TestbedConfig,
    to: &TestbedConfig,
    scheduled: Option<ControlConfig>,
    json: bool,
) -> Done {
    let mut done = Done::default();
    let (from_name, to_name) = (from.topology.name(), to.topology.name());
    let existing = ctl.manager().slices().find(|s| s.name == from_name).map(|s| s.id);
    let id = match existing {
        Some(id) => id,
        None => match ctl.create(from_name, &from.topology, &from.strategy) {
            Ok(id) => {
                done.installed.push((0, id));
                id
            }
            Err(e) => return done.fail(format!("{from_path}: admission failed: {e}")),
        },
    };
    let attempt = match scheduled {
        Some(profile) => ctl
            .reconfigure_scheduled(
                id,
                &to.topology,
                &to.strategy,
                &mut ControlChannel::new(profile),
            )
            .map(|(r, s)| (r, Some(s))),
        None => ctl.reconfigure(id, &to.topology, &to.strategy).map(|r| (r, None)),
    };
    let (report, sched) = match attempt {
        Ok(x) => x,
        Err(e) => return done.fail(e.to_string()),
    };
    done.installed.push((1, id));
    let holds = ctl.manager_mut().verify_report().holds();
    done.output = if json {
        output::reconfigure_json(
            from_name,
            to_name,
            scheduled.is_some(),
            &report,
            sched.as_ref(),
            holds,
        )
    } else {
        output::reconfigure_human(from_name, to_name, &report, sched.as_ref(), holds)
    };
    done.error = if !holds {
        Some("post-reconfiguration audit found violations".into())
    } else if sched.is_some_and(|s| !s.converged) {
        Some("scheduled migration did not converge".into())
    } else {
        None
    };
    done
}

/// Multi-config `sdtctl verify`: admit `configs` as slices (none when the
/// daemon verifies what it already runs; any refusal ends the command),
/// then statically verify the shared tables — no packets injected. `stats`
/// runs a full pass even when a proof is cached and adds its cost figures.
pub fn verify(
    ctl: &mut SliceController,
    configs: &[ConfigItem],
    json: bool,
    stats: bool,
) -> Done {
    let mut done = Done::default();
    for row in admit(ctl, configs, &mut done) {
        if let Err(e) = row.result {
            return done.fail(format!("{}: admission failed: {e}", row.path));
        }
    }
    let (report, block) = if stats {
        let t0 = std::time::Instant::now();
        let (report, stats) = ctl.manager_mut().verify_report_with_stats();
        let wall_s = t0.elapsed().as_secs_f64();
        (report, Some(StatsBlock { wall_s, warm_s: None, stats }))
    } else {
        (ctl.manager_mut().verify_report(), None)
    };
    done.output = if json {
        output::verify_json("slices", &report, block.as_ref())
    } else {
        output::verify_human("slices", &report, block.as_ref())
    };
    if !report.holds() {
        done.error = Some("static verification failed".into());
    }
    done
}
