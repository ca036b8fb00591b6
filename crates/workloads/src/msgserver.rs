//! The §2 server example: messages dropped at higher-than-expected rates.
//!
//! Producers send messages over the network to a receiver task that appends
//! them to a shared buffer; a consumer walks the buffer behind a shared
//! cursor. When the buffer grows past a threshold, the receiver *compacts*
//! it — dropping the consumed prefix and resetting the cursor. The
//! compaction races with the consumer's cursor update: if the consumer's
//! stale `cursor + 1` lands after the receiver's reset, the cursor skips
//! over unprocessed messages and they are never handled — the elevated drop
//! rate whose *true* root cause is this race. The alternative explanation —
//! the one a failure-deterministic replayer naturally reaches for — is
//! network congestion, which drops messages before they arrive. The paper's
//! §2 warning: if replay shows congestion, the developer "naturally, yet
//! mistakenly, assumes nothing more can be done" and the race survives.

use dd_core::{snapshot, CauseCtx, FnSpec, RootCause, RunSetup, Spec, Workload};
use dd_replay::NondetSpace;
use dd_sim::{Builder, ChanClass, EnvConfig, Event, InputScript, IoSummary, Program};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Failure id: the server dropped more messages than the SLO allows.
pub const EXCESS_DROPS: &str = "msgserver.excess-drops";
/// Root cause id: the unsynchronised buffer.
pub const RC_BUFFER_RACE: &str = "buffer-race";
/// Root cause id: network congestion.
pub const RC_CONGESTION: &str = "network-congestion";

/// Message-server configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MsgServerConfig {
    /// Producer tasks.
    pub n_producers: u32,
    /// Messages each producer sends.
    pub msgs_per_producer: u32,
    /// Messages sent back-to-back per burst.
    pub burst: u32,
    /// Payload size per message (bytes).
    pub payload: u32,
    /// Virtual ticks between bursts per producer.
    pub send_gap: u64,
    /// Buffer length that triggers a compaction.
    pub compact_at: usize,
    /// Virtual ticks between consumer drain polls.
    pub poll_gap: u64,
    /// When the run ends (reporter stops it).
    pub end_time: u64,
    /// Permitted drop fraction numerator (drops ≤ sent×num/den passes).
    pub slo_num: i64,
    /// Permitted drop fraction denominator.
    pub slo_den: i64,
}

impl Default for MsgServerConfig {
    fn default() -> Self {
        MsgServerConfig {
            n_producers: 2,
            msgs_per_producer: 24,
            burst: 4,
            payload: 96,
            send_gap: 60,
            compact_at: 10,
            poll_gap: 45,
            end_time: 1_600,
            slo_num: 1,
            slo_den: 20,
        }
    }
}

/// The message-server program.
pub struct MsgServerProgram {
    /// Configuration.
    pub cfg: MsgServerConfig,
    /// Whether the buffer lock fix is applied.
    pub fixed: bool,
}

impl Program for MsgServerProgram {
    fn name(&self) -> &'static str {
        if self.fixed {
            "msgserver-fixed"
        } else {
            "msgserver"
        }
    }

    fn setup(&self, b: &mut Builder<'_>) {
        let cfg = self.cfg.clone();
        let fixed = self.fixed;
        let net = b.channel::<Vec<u8>>("net.in", ChanClass::Network);
        // The shared buffer (appended by the receiver) and the consumer's
        // cursor into it (reset by the receiver's compaction — the race).
        let buffer = b.var("buffer", Vec::<i64>::new());
        let cursor = b.var("consumed", 0i64);
        let buffer_lock = b.mutex("buffer.lock");
        // Data-plane sink: the consumer streams processed payloads here.
        let out_log = b.var("out.log", Vec::<u8>::new());

        for p in 0..cfg.n_producers {
            let cfg_p = cfg.clone();
            b.spawn(
                &format!("producer{p}"),
                &format!("producer{p}"),
                move |mut ctx| async move {
                    let mut i = 0;
                    while i < cfg_p.msgs_per_producer {
                        ctx.sleep(cfg_p.send_gap, "producer::pace").await?;
                        for _ in 0..cfg_p.burst.min(cfg_p.msgs_per_producer - i) {
                            let id = (p as i64) * 1_000_000 + i as i64;
                            // One draw expanded locally into the payload; the
                            // message carries its id in the first 8 bytes.
                            let seed = ctx.rand_below(0, "producer::gen").await?;
                            let mut sm = dd_sim::rng::SplitMix64::new(seed);
                            let mut bytes = id.to_le_bytes().to_vec();
                            bytes.extend((8..cfg_p.payload).map(|_| sm.next_u64() as u8));
                            ctx.send(&net, bytes, "producer::send").await?;
                            ctx.count("msgs_sent", 1, "producer::send").await?;
                            i += 1;
                        }
                    }
                    Ok(())
                },
            );
        }

        // Receiver: network → shared buffer, compacting when it grows.
        let cfg_r = cfg.clone();
        b.spawn("receiver", "server", move |mut ctx| async move {
            loop {
                let bytes = ctx.recv(&net, "receiver::recv").await?;
                let id = i64::from_le_bytes(bytes[..8].try_into().expect("8-byte id"));
                if fixed {
                    ctx.lock(buffer_lock, "receiver::lock").await?;
                }
                let mut buf = ctx.read(&buffer, "receiver::buf_read").await?;
                buf.push(id);
                let len = buf.len();
                if len >= cfg_r.compact_at {
                    // Compaction: drop the consumed prefix and rewind the
                    // cursor. BUG: without the lock this read-modify-write
                    // races with the consumer's cursor bump.
                    let c = ctx.read(&cursor, "receiver::cursor_read").await? as usize;
                    let c = c.min(buf.len());
                    let compacted: Vec<i64> = buf[c..].to_vec();
                    ctx.write(&buffer, compacted, "receiver::compact").await?;
                    ctx.write(&cursor, 0i64, "receiver::cursor_reset").await?;
                    ctx.probe("msgserver.compacted", c, "receiver::compact")
                        .await?;
                } else {
                    ctx.write(&buffer, buf, "receiver::buf_write").await?;
                }
                if fixed {
                    ctx.unlock(buffer_lock, "receiver::unlock").await?;
                }
                ctx.probe("msgserver.buflen", len, "receiver::buf_write")
                    .await?;
                ctx.count("msgs_buffered", 1, "receiver::buf_write").await?;
            }
        });

        // Consumer: periodically drains everything behind the shared
        // cursor, committing the cursor once per batch (at-least-once
        // processing, idempotent by message id).
        let cfg_c = cfg.clone();
        b.spawn("consumer", "server", move |mut ctx| async move {
            let mut seen = std::collections::HashSet::new();
            loop {
                ctx.sleep(cfg_c.poll_gap, "consumer::poll").await?;
                if fixed {
                    ctx.lock(buffer_lock, "consumer::lock").await?;
                }
                let c = ctx.read(&cursor, "consumer::cursor_read").await?;
                let buf = ctx.read(&buffer, "consumer::buf_read").await?;
                let batch: Vec<i64> = buf.iter().skip(c as usize).copied().collect();
                for id in &batch {
                    if seen.insert(*id) {
                        // Stream the processed payload out (data plane).
                        ctx.write(
                            &out_log,
                            vec![0u8; cfg_c.payload as usize],
                            "consumer::process",
                        )
                        .await?;
                        ctx.count("msgs_processed", 1, "consumer::process").await?;
                    }
                }
                if !batch.is_empty() {
                    // BUG: committing the stale batch-end position can
                    // clobber a concurrent compaction's cursor reset,
                    // skipping messages that were never processed.
                    ctx.write(&cursor, buf.len() as i64, "consumer::cursor_commit")
                        .await?;
                }
                if fixed {
                    ctx.unlock(buffer_lock, "consumer::unlock").await?;
                }
            }
        });

        // Reporter: ends the run at the configured time.
        let end = cfg.end_time;
        b.spawn("reporter", "reporter", move |mut ctx| async move {
            ctx.sleep(end, "reporter::wait").await?;
            ctx.stop_run("reporter::stop").await
        });
    }
}

/// Builds the message-server specification: drops within the SLO.
///
/// Drops — the performance characteristic the paper's §3 failure definition
/// explicitly includes — are measured from the run's counters.
pub fn msgserver_spec(cfg: &MsgServerConfig) -> Arc<dyn Spec> {
    let (num, den) = (cfg.slo_num, cfg.slo_den);
    Arc::new(FnSpec::new("msgserver-drop-slo", move |io: &IoSummary| {
        let sent = io.counter("msgs_sent");
        let processed = io.counter("msgs_processed");
        if sent == 0 {
            return Some(snapshot(EXCESS_DROPS, "nothing was sent".into(), io));
        }
        let dropped = sent - processed;
        if dropped * den > sent * num {
            Some(snapshot(
                EXCESS_DROPS,
                format!("{dropped} of {sent} messages dropped"),
                io,
            ))
        } else {
            None
        }
    }))
}

/// The message-server workload, pinned to a failing production seed.
pub struct MsgServerWorkload {
    cfg: MsgServerConfig,
    production: RunSetup,
}

impl MsgServerWorkload {
    /// Configuration accessor.
    pub fn config(&self) -> &MsgServerConfig {
        &self.cfg
    }

    /// Finds a schedule seed whose clean-environment run violates the drop
    /// SLO through the buffer race.
    pub fn discover(cfg: MsgServerConfig, max_seeds: u64) -> Option<Self> {
        let program = MsgServerProgram {
            cfg: cfg.clone(),
            fixed: false,
        };
        let spec = msgserver_spec(&cfg);
        for seed in 0..max_seeds {
            let run_cfg = dd_sim::RunConfig {
                seed,
                max_steps: 500_000,
                ..dd_sim::RunConfig::default()
            };
            let out = dd_sim::run_program(
                &program,
                run_cfg,
                Box::new(dd_sim::RandomPolicy::new(seed)),
                vec![],
            );
            if spec.check(&out.io).is_some() {
                return Some(MsgServerWorkload {
                    cfg,
                    production: RunSetup {
                        seed,
                        sched_seed: seed,
                        inputs: InputScript::new(),
                        env: EnvConfig::clean(),
                        max_steps: 500_000,
                    },
                });
            }
        }
        None
    }
}

impl Workload for MsgServerWorkload {
    fn name(&self) -> &'static str {
        "msgserver-drops"
    }

    fn program(&self) -> Arc<dyn Program> {
        Arc::new(MsgServerProgram {
            cfg: self.cfg.clone(),
            fixed: false,
        })
    }

    fn spec(&self) -> Arc<dyn Spec> {
        msgserver_spec(&self.cfg)
    }

    fn root_causes(&self) -> Vec<RootCause> {
        let (num, den) = (self.cfg.slo_num, self.cfg.slo_den);
        vec![
            RootCause::new(
                RC_BUFFER_RACE,
                EXCESS_DROPS,
                "the consumer's stale cursor commit clobbers the compaction's \
                 cursor reset, skipping unprocessed messages",
                move |ctx: &CauseCtx<'_>| {
                    // The harmful clobber direction must be present: the
                    // consumer's commit overwrote the receiver's reset. (The
                    // other order just reprocesses, absorbed by dedup.)
                    let harmful =
                        dd_detect::lost_updates(ctx.trace, ctx.registry, |n| n == "consumed")
                            .iter()
                            .any(|lu| {
                                let name = |t: dd_sim::TaskId| {
                                    ctx.registry
                                        .tasks
                                        .get(t.index())
                                        .map(|m| m.name.as_str())
                                        .unwrap_or("")
                                };
                                name(lu.writer) == "consumer" && name(lu.overwritten) == "receiver"
                            });
                    if !harmful {
                        return false;
                    }
                    // …and the race must account for SLO-breaching loss
                    // beyond what the network dropped.
                    let sent = ctx.io.counter("msgs_sent");
                    let processed = ctx.io.counter("msgs_processed");
                    let net_drops = ctx
                        .trace
                        .count_matching(|e| matches!(e, Event::SendDropped { .. }))
                        as i64;
                    let race_loss = sent - processed - net_drops;
                    race_loss * den > sent * num
                },
            ),
            RootCause::new(
                RC_CONGESTION,
                EXCESS_DROPS,
                "network congestion dropped messages before arrival (outside \
                 the developer's control)",
                move |ctx: &CauseCtx<'_>| {
                    let sent = ctx.io.counter("msgs_sent");
                    let net_drops = ctx
                        .trace
                        .count_matching(|e| matches!(e, Event::SendDropped { .. }))
                        as i64;
                    sent > 0 && net_drops * den > sent * num
                },
            ),
        ]
    }

    fn production(&self) -> RunSetup {
        self.production.clone()
    }

    fn space(&self) -> NondetSpace {
        // Congestion first: the simplest execution synthesising the drop
        // evidence is "the network did it" — §2's deceptive explanation.
        NondetSpace {
            seeds: (0..16).collect(),
            inputs: vec![InputScript::new()],
            envs: vec![
                EnvConfig {
                    drop_per_mille: 120,
                    ..EnvConfig::clean()
                },
                EnvConfig::clean(),
            ],
        }
    }

    fn fixed_program(&self) -> Option<Arc<dyn Program>> {
        Some(Arc::new(MsgServerProgram {
            cfg: self.cfg.clone(),
            fixed: true,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{run_program, RandomPolicy, RunConfig};

    fn run(fixed: bool, seed: u64, env: EnvConfig) -> dd_sim::RunOutput {
        let cfg = MsgServerConfig::default();
        let run_cfg = RunConfig {
            seed,
            env,
            max_steps: 500_000,
            ..RunConfig::default()
        };
        run_program(
            &MsgServerProgram { cfg, fixed },
            run_cfg,
            Box::new(RandomPolicy::new(seed)),
            vec![],
        )
    }

    #[test]
    fn racy_buffer_drops_for_some_schedule() {
        let spec = msgserver_spec(&MsgServerConfig::default());
        let failing =
            (0..16).filter(|&s| spec.check(&run(false, s, EnvConfig::clean()).io).is_some());
        assert!(failing.count() > 0, "no seed lost messages");
    }

    #[test]
    fn fixed_buffer_never_drops_on_clean_network() {
        let spec = msgserver_spec(&MsgServerConfig::default());
        for seed in 0..12 {
            let out = run(true, seed, EnvConfig::clean());
            let f = spec.check(&out.io);
            assert!(
                f.is_none(),
                "seed {seed}: fixed server dropped: {f:?} (counters {:?})",
                out.io.counters
            );
        }
    }

    #[test]
    fn congestion_also_violates_the_slo() {
        let spec = msgserver_spec(&MsgServerConfig::default());
        let env = EnvConfig {
            drop_per_mille: 120,
            ..EnvConfig::clean()
        };
        let failing = (0..8).filter(|&s| spec.check(&run(true, s, env.clone()).io).is_some());
        assert!(
            failing.count() > 0,
            "congestion at 12% should breach a 5% SLO"
        );
    }

    #[test]
    fn root_cause_predicates_discriminate() {
        let w = MsgServerWorkload::discover(MsgServerConfig::default(), 32)
            .expect("failing seed exists");
        let causes = w.root_causes();
        // The production (clean env) failure is the race, not congestion.
        let s = w.scenario();
        let out = s.execute(&s.original_spec(), vec![]);
        let ctx = CauseCtx {
            trace: &out.trace,
            registry: &out.registry,
            io: &out.io,
        };
        let active: Vec<&str> = causes
            .iter()
            .filter(|c| c.active_in(&ctx))
            .map(|c| c.id)
            .collect();
        assert_eq!(active, vec![RC_BUFFER_RACE]);
    }

    #[test]
    fn congested_run_activates_congestion_cause() {
        let causes = MsgServerWorkload::discover(MsgServerConfig::default(), 32)
            .unwrap()
            .root_causes();
        let env = EnvConfig {
            drop_per_mille: 200,
            ..EnvConfig::clean()
        };
        let out = run(true, 3, env);
        let ctx = CauseCtx {
            trace: &out.trace,
            registry: &out.registry,
            io: &out.io,
        };
        let congestion = causes.iter().find(|c| c.id == RC_CONGESTION).unwrap();
        assert!(congestion.active_in(&ctx));
        let race = causes.iter().find(|c| c.id == RC_BUFFER_RACE).unwrap();
        assert!(!race.active_in(&ctx), "fixed build has no buffer race");
    }
}
