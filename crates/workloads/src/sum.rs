//! The §2 sum example: a program that outputs 5 for inputs 2 and 2.
//!
//! The adder memoises small sums in a lookup table whose initialisation has
//! an off-by-one corruption at entry 4 — so any input pair summing to 4
//! outputs 5. The paper's point: an output-deterministic replayer asked to
//! reproduce "output = 5" may synthesise inputs 1 and 4, whose output 5 is
//! *correct* — no failure, no root cause, debugging fidelity 0.

use dd_core::{snapshot, CauseCtx, FnSpec, RootCause, RunSetup, Spec, Workload};
use dd_replay::NondetSpace;
use dd_sim::{Builder, EnvConfig, InputScript, IoSummary, Program, SimData, Value};
use std::sync::Arc;

/// Failure id: the adder produced a wrong sum.
pub const WRONG_SUM: &str = "sum.wrong-sum";
/// Root cause id: the corrupted lookup-table entry.
pub const RC_CORRUPT_TABLE: &str = "corrupt-sum-table";

/// Size of the memoisation table.
const TABLE_SIZE: i64 = 16;
/// The corrupted entry.
const BAD_ENTRY: i64 = 4;

/// The sum program.
pub struct SumProgram {
    /// Whether the table-initialisation fix is applied.
    pub fixed: bool,
}

impl Program for SumProgram {
    fn name(&self) -> &'static str {
        if self.fixed {
            "sum-fixed"
        } else {
            "sum"
        }
    }

    fn setup(&self, b: &mut Builder<'_>) {
        // The memo table: entry i should hold i. The buggy initialiser
        // corrupts entry 4 (an off-by-one while seeding the carry row).
        let fixed = self.fixed;
        let table: Vec<i64> = (0..TABLE_SIZE)
            .map(|i| if !fixed && i == BAD_ENTRY { i + 1 } else { i })
            .collect();
        let lut = b.var("sum.table", table);
        let operands = b.in_port("operands");
        let out = b.out_port("sum");
        b.spawn("adder", "adder", move |mut ctx| async move {
            loop {
                let a: i64 = match ctx.input(operands, "sum::input_a").await {
                    Ok(v) => v,
                    Err(dd_sim::SimError::InputExhausted(_)) => return Ok(()),
                    Err(e) => return Err(e),
                };
                let bb: i64 = ctx.input(operands, "sum::input_b").await?;
                let naive = a + bb;
                let result = if (0..TABLE_SIZE).contains(&naive) {
                    let table = ctx.read(&lut, "sum::table_lookup").await?;
                    let hit = table[naive as usize];
                    ctx.probe("sum.lut_hit", vec![naive, hit], "sum::table_lookup")
                        .await?;
                    hit
                } else {
                    naive
                };
                ctx.output(out, result, "sum::output").await?;
            }
        });
    }
}

/// Builds the sum I/O specification: each output must equal the sum of the
/// corresponding consumed input pair. The relation is judged over the run's
/// observable behaviour — consumed inputs and emitted outputs.
pub fn sum_spec() -> Arc<dyn Spec> {
    Arc::new(FnSpec::new("sum-correct", |io: &IoSummary| {
        let inputs = io.inputs_on("operands");
        for (i, v) in io.outputs_on("sum").iter().enumerate() {
            let Some(s) = v.as_int() else { continue };
            let (Some(a), Some(b)) = (
                inputs.get(2 * i).and_then(|v| v.as_int()),
                inputs.get(2 * i + 1).and_then(|v| v.as_int()),
            ) else {
                continue;
            };
            if s != a + b {
                return Some(snapshot(WRONG_SUM, format!("{a} + {b} returned {s}"), io));
            }
        }
        None
    }))
}

/// The sum workload: production inputs (2, 2).
pub struct SumWorkload;

impl SumWorkload {
    fn inputs_for(a: i64, b: i64) -> InputScript {
        let mut s = InputScript::new();
        s.push("operands", 0, Value::Int(a));
        s.push("operands", 5, Value::Int(b));
        s
    }
}

impl Workload for SumWorkload {
    fn name(&self) -> &'static str {
        "sum-2plus2"
    }

    fn program(&self) -> Arc<dyn Program> {
        Arc::new(SumProgram { fixed: false })
    }

    fn spec(&self) -> Arc<dyn Spec> {
        sum_spec()
    }

    fn root_causes(&self) -> Vec<RootCause> {
        vec![RootCause::new(
            RC_CORRUPT_TABLE,
            WRONG_SUM,
            "memo-table entry corrupted by the off-by-one initialiser",
            |ctx: &CauseCtx<'_>| {
                ctx.trace.probes("sum.lut_hit").any(|(_, v)| {
                    <Vec<i64>>::from_value(v).is_some_and(|p| p.len() == 2 && p[0] != p[1])
                })
            },
        )]
    }

    fn production(&self) -> RunSetup {
        RunSetup {
            seed: 1,
            sched_seed: 1,
            inputs: Self::inputs_for(2, 2),
            env: EnvConfig::clean(),
            max_steps: 10_000,
        }
    }

    fn space(&self) -> NondetSpace {
        // Candidate inputs an inference engine may consider, in search
        // order. (1, 4) precedes (2, 2): both produce output 5, but only
        // (2, 2) is a failure — the §2 over-relaxation trap.
        NondetSpace {
            seeds: vec![0, 1],
            inputs: vec![
                Self::inputs_for(1, 4),
                Self::inputs_for(4, 1),
                Self::inputs_for(2, 3),
                Self::inputs_for(2, 2),
                Self::inputs_for(1, 3),
                Self::inputs_for(3, 3),
            ],
            envs: vec![EnvConfig::clean()],
        }
    }

    fn fixed_program(&self) -> Option<Arc<dyn Program>> {
        Some(Arc::new(SumProgram { fixed: true }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{run_program, RandomPolicy, RunConfig};

    fn run(fixed: bool, a: i64, b: i64) -> dd_sim::RunOutput {
        let cfg = RunConfig {
            inputs: SumWorkload::inputs_for(a, b),
            ..RunConfig::with_seed(1)
        };
        run_program(
            &SumProgram { fixed },
            cfg,
            Box::new(RandomPolicy::new(1)),
            vec![],
        )
    }

    #[test]
    fn two_plus_two_is_five() {
        let out = run(false, 2, 2);
        assert_eq!(out.io.outputs_on("sum")[0].as_int(), Some(5));
        assert!(sum_spec().check(&out.io).is_some());
    }

    #[test]
    fn one_plus_four_is_five_and_correct() {
        let out = run(false, 1, 4);
        assert_eq!(out.io.outputs_on("sum")[0].as_int(), Some(5));
        assert!(
            sum_spec().check(&out.io).is_none(),
            "1+4=5 is not a failure"
        );
    }

    #[test]
    fn fixed_table_adds_correctly() {
        for (a, b) in [(2, 2), (1, 4), (0, 4), (3, 1), (7, 9)] {
            let out = run(true, a, b);
            assert!(sum_spec().check(&out.io).is_none(), "{a}+{b} failed");
        }
    }

    #[test]
    fn root_cause_predicate_fires_only_on_corrupt_lookups() {
        let w = SumWorkload;
        let causes = w.root_causes();
        let bad = run(false, 2, 2);
        let ctx = CauseCtx {
            trace: &bad.trace,
            registry: &bad.registry,
            io: &bad.io,
        };
        assert!(causes[0].active_in(&ctx));

        let good = run(false, 1, 4);
        let ctx = CauseCtx {
            trace: &good.trace,
            registry: &good.registry,
            io: &good.io,
        };
        assert!(
            !causes[0].active_in(&ctx),
            "1+4 never touches the bad entry"
        );
    }

    #[test]
    fn big_sums_bypass_the_table() {
        let out = run(false, 20, 30);
        assert_eq!(out.io.outputs_on("sum")[0].as_int(), Some(50));
        assert_eq!(out.io.inputs_on("operands").len(), 2);
    }
}
