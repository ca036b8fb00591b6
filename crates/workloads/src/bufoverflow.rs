//! The §3 buffer-overflow example.
//!
//! > "To fix a buffer overflow that crashes the program, a developer may add
//! > a check on the input size and prevent the program from copying the
//! > input into the buffer if it exceeds the buffer's length. This check is
//! > the predicate associated with the fix. Not performing this check …
//! > represents the root cause of the crash."
//!
//! The server copies each request into a fixed 64-byte stack buffer. The
//! buggy build performs no length check: an oversized request smashes the
//! stack and crashes. The fixed build rejects oversized requests — the fix
//! predicate P is exactly `len(input) ≤ capacity`.

use dd_core::{snapshot, CauseCtx, FnSpec, RootCause, RunSetup, Spec, Workload};
use dd_replay::NondetSpace;
use dd_sim::{Builder, EnvConfig, Event, InputScript, IoSummary, Program, SimError, Value};
use std::sync::Arc;

/// Failure id: the request handler crashed.
pub const CRASH: &str = "bufoverflow.crash";
/// Root cause id: the missing input-length check.
pub const RC_MISSING_CHECK: &str = "missing-length-check";

/// The fixed stack buffer's capacity.
pub const CAPACITY: usize = 64;

/// The request-handling program.
pub struct BufOverflowProgram {
    /// Whether the length check is applied.
    pub fixed: bool,
}

impl Program for BufOverflowProgram {
    fn name(&self) -> &'static str {
        if self.fixed {
            "bufoverflow-fixed"
        } else {
            "bufoverflow"
        }
    }

    fn setup(&self, b: &mut Builder<'_>) {
        let fixed = self.fixed;
        let requests = b.in_port("requests");
        let acks = b.out_port("acks");
        let stack = b.var("handler.stack", Vec::<u8>::new());
        b.spawn("handler", "server", move |mut ctx| async move {
            loop {
                let req: Vec<u8> = match ctx.input(requests, "handler::input").await {
                    Ok(r) => r,
                    Err(SimError::InputExhausted(_)) => return Ok(()),
                    Err(e) => return Err(e),
                };
                ctx.probe("bufoverflow.req_len", req.len(), "handler::check")
                    .await?;
                if fixed && req.len() > CAPACITY {
                    // FIX: the predicate P — reject instead of copying.
                    ctx.output(acks, Value::Str("rejected".into()), "handler::reject")
                        .await?;
                    continue;
                }
                // Copy the request into the fixed-size buffer.
                ctx.write(&stack, req.clone(), "handler::copy").await?;
                if req.len() > CAPACITY {
                    // The copy ran past the buffer: stack smashed.
                    return ctx
                        .crash("stack smashed by oversized request", "handler::copy")
                        .await;
                }
                ctx.output(acks, Value::Str("ok".into()), "handler::ack")
                    .await?;
            }
        });
    }
}

/// Builds the overflow specification: the handler must not crash.
pub fn bufoverflow_spec() -> Arc<dyn Spec> {
    Arc::new(FnSpec::new("no-crash", |io: &IoSummary| {
        if io.crashed() {
            Some(snapshot(
                CRASH,
                format!("handler crashed: {}", io.crashes[0].reason),
                io,
            ))
        } else {
            None
        }
    }))
}

/// The overflow workload: one oversized request among normal traffic.
pub struct BufOverflowWorkload;

impl BufOverflowWorkload {
    /// Production inputs: small requests plus one oversized request.
    pub fn production_inputs() -> InputScript {
        let mut s = InputScript::new();
        for i in 0..6u64 {
            s.push(
                "requests",
                10 + i * 20,
                Value::Bytes(vec![7; 24 + i as usize]),
            );
        }
        s.push("requests", 140, Value::Bytes(vec![9; CAPACITY + 33]));
        s.push("requests", 160, Value::Bytes(vec![7; 30]));
        s
    }

    fn small_inputs() -> InputScript {
        let mut s = InputScript::new();
        for i in 0..8u64 {
            s.push("requests", 10 + i * 20, Value::Bytes(vec![7; 20]));
        }
        s
    }
}

impl Workload for BufOverflowWorkload {
    fn name(&self) -> &'static str {
        "bufoverflow"
    }

    fn program(&self) -> Arc<dyn Program> {
        Arc::new(BufOverflowProgram { fixed: false })
    }

    fn spec(&self) -> Arc<dyn Spec> {
        bufoverflow_spec()
    }

    fn root_causes(&self) -> Vec<RootCause> {
        vec![RootCause::new(
            RC_MISSING_CHECK,
            CRASH,
            "input copied into the buffer without a length check",
            |ctx: &CauseCtx<'_>| {
                // An oversized request reached the copy.
                ctx.trace.any(|e| match e {
                    Event::Write { site, value, .. } => {
                        site == "handler::copy" && value.byte_size() > CAPACITY as u64 + 4
                    }
                    _ => false,
                })
            },
        )]
    }

    fn production(&self) -> RunSetup {
        RunSetup {
            seed: 1,
            sched_seed: 1,
            inputs: Self::production_inputs(),
            env: EnvConfig::clean(),
            max_steps: 50_000,
        }
    }

    fn space(&self) -> NondetSpace {
        NondetSpace {
            seeds: vec![0, 1, 2, 3],
            inputs: vec![Self::small_inputs(), Self::production_inputs()],
            envs: vec![EnvConfig::clean()],
        }
    }

    fn fixed_program(&self) -> Option<Arc<dyn Program>> {
        Some(Arc::new(BufOverflowProgram { fixed: true }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_core::Workload;

    fn run(fixed: bool, inputs: InputScript) -> dd_sim::RunOutput {
        let cfg = dd_sim::RunConfig {
            inputs,
            ..dd_sim::RunConfig::with_seed(1)
        };
        dd_sim::run_program(
            &BufOverflowProgram { fixed },
            cfg,
            Box::new(dd_sim::RandomPolicy::new(1)),
            vec![],
        )
    }

    #[test]
    fn oversized_request_crashes_buggy_build() {
        let out = run(false, BufOverflowWorkload::production_inputs());
        assert!(out.io.crashed());
        assert!(bufoverflow_spec().check(&out.io).is_some());
        // Requests after the crash are not acknowledged.
        assert!(out.io.outputs_on("acks").len() < 8);
    }

    #[test]
    fn fixed_build_rejects_and_survives() {
        let out = run(true, BufOverflowWorkload::production_inputs());
        assert!(!out.io.crashed());
        let acks = out.io.outputs_on("acks");
        assert_eq!(acks.len(), 8);
        assert!(acks.iter().any(|v| v.as_str() == Some("rejected")));
    }

    #[test]
    fn small_requests_never_crash() {
        for fixed in [false, true] {
            let out = run(fixed, BufOverflowWorkload::small_inputs());
            assert!(!out.io.crashed());
        }
    }

    #[test]
    fn root_cause_predicate_tracks_the_unchecked_copy() {
        let w = BufOverflowWorkload;
        let cause = &w.root_causes()[0];
        let bad = run(false, BufOverflowWorkload::production_inputs());
        let ctx = CauseCtx {
            trace: &bad.trace,
            registry: &bad.registry,
            io: &bad.io,
        };
        assert!(cause.active_in(&ctx));

        // The fixed build rejects before the copy: predicate is quiet.
        let good = run(true, BufOverflowWorkload::production_inputs());
        let ctx = CauseCtx {
            trace: &good.trace,
            registry: &good.registry,
            io: &good.io,
        };
        assert!(!cause.active_in(&ctx));
    }
}
