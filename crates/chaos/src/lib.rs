//! # jcdn-chaos — deterministic fault injection for crash-safety tests
//!
//! The crash-safety contract (DESIGN.md §13) is only testable if faults
//! can be produced on demand, at exact points, reproducibly. This crate is
//! that switchboard: a seed-deterministic [`FailPlan`] names the fail
//! points — fail the Nth durable write, land a write truncated or with a
//! flipped bit, panic in task K of a named worker pool — and the
//! production crates consult the plan through the [`Chaos`] trait at the
//! few places where a fault can be injected.
//!
//! Production pays nothing for this: the default [`Quiet`] implementation
//! is a no-op behind one atomic load ([`handle`]), no plan is ever
//! installed outside tests, and the hooks sit on cold paths (one call per
//! file write, one per pool task) — never inside per-record loops.
//!
//! A plan is installed process-wide exactly once ([`install`]), which is
//! how the `chaos_recovery` integration suite drives the real `jcdn`
//! binary: the CLI parses the `JCDN_CHAOS` environment variable at startup
//! and installs the plan before dispatching the command. Library tests
//! that want isolation instead pass a plan (or any `Chaos` impl) directly
//! to the APIs that accept one, e.g. the trace store's writer.
//!
//! Determinism: a plan's behavior is a pure function of its spec string
//! (plus the explicit `seed=` entry for `*` offsets). Fail points keyed on
//! "the Nth write" assume the instrumented writes happen in a fixed order,
//! which holds for the shard store (commits are sequential on the caller
//! thread); points keyed on a pool label and task index are order-free.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// An injected I/O failure, surfaced by [`Chaos::on_write`]. Callers map
/// it onto their native error type (the trace store turns it into a
/// `std::io::Error`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedIoError {
    /// Which fail point fired (human-readable, deterministic).
    pub what: String,
}

impl std::fmt::Display for InjectedIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos: injected I/O error ({})", self.what)
    }
}

impl std::error::Error for InjectedIoError {}

/// The fault-injection hooks production code consults. Every method
/// defaults to "do nothing", so an implementation only overrides the
/// faults it models.
pub trait Chaos: Send + Sync {
    /// Called once per durable write with the bytes about to hit disk.
    /// May return an injected error (the write never happens), or mutate
    /// the buffer in place to simulate a torn or corrupted write that
    /// *succeeds* from the writer's point of view.
    fn on_write(&self, label: &str, bytes: &mut Vec<u8>) -> Result<(), InjectedIoError> {
        let _ = (label, bytes);
        Ok(())
    }

    /// Called at the start of task `index` of the worker pool labeled
    /// `label`, inside the pool's panic-quarantine boundary. An injected
    /// fault panics here; the pool is expected to contain it.
    fn on_task(&self, label: &str, index: usize) {
        let _ = (label, index);
    }
}

/// The production implementation: injects nothing.
pub struct Quiet;

impl Chaos for Quiet {}

static QUIET: Quiet = Quiet;
static ACTIVE: OnceLock<FailPlan> = OnceLock::new();

/// Installs `plan` as the process-wide chaos source. Returns `false` if a
/// plan was already installed (the first one wins; plans are per-process
/// by design — tests that need isolation run subprocesses or pass a plan
/// explicitly).
pub fn install(plan: FailPlan) -> bool {
    ACTIVE.set(plan).is_ok()
}

/// The process-wide [`Chaos`] handle: the installed [`FailPlan`], or
/// [`Quiet`] when none was installed (the production state).
pub fn handle() -> &'static dyn Chaos {
    match ACTIVE.get() {
        Some(plan) => plan,
        None => &QUIET,
    }
}

/// One fault in a [`FailPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailPoint {
    /// The `nth` durable write (1-based, counted process-wide) fails with
    /// an [`InjectedIoError`]; nothing is written.
    WriteError {
        /// 1-based write ordinal.
        nth: u64,
    },
    /// The `nth` durable write lands truncated to `keep` bytes but
    /// reports success — a torn write / power-loss simulation. `None`
    /// derives `keep` from the plan seed (strictly inside the buffer).
    TruncateWrite {
        /// 1-based write ordinal.
        nth: u64,
        /// Bytes to keep, or `None` for seed-derived.
        keep: Option<u64>,
    },
    /// The `nth` durable write lands with one bit flipped at byte
    /// `offset` (wrapped into the buffer) but reports success — silent
    /// media corruption. `None` derives the offset from the plan seed.
    BitFlipWrite {
        /// 1-based write ordinal.
        nth: u64,
        /// Byte offset to corrupt, or `None` for seed-derived.
        offset: Option<u64>,
    },
    /// Task `index` of the pool labeled `label` panics on its first
    /// attempt only — the pool's sequential retry then succeeds.
    PanicOnce {
        /// Pool label (e.g. `characterize.shards`).
        label: String,
        /// Task index within the fan-out.
        index: usize,
    },
    /// Task `index` of the pool labeled `label` panics on every attempt —
    /// the retry fails too and the shard is quarantined.
    PanicAlways {
        /// Pool label.
        label: String,
        /// Task index within the fan-out.
        index: usize,
    },
}

/// A parsed, seed-deterministic fail-point plan. Implements [`Chaos`];
/// build one with [`FailPlan::parse`] and either [`install`] it (CLI
/// subprocess tests via `JCDN_CHAOS`) or pass it directly to an API that
/// takes a `&dyn Chaos`.
#[derive(Debug)]
pub struct FailPlan {
    points: Vec<PlannedPoint>,
    seed: u64,
    writes_seen: AtomicU64,
}

#[derive(Debug)]
struct PlannedPoint {
    point: FailPoint,
    fired: AtomicBool,
}

impl FailPlan {
    /// Parses a plan spec: semicolon-separated fail points, e.g.
    /// `seed=7;write-error:2;panic:characterize.shards:0`.
    ///
    /// ```text
    /// seed=S                    seed for `*` offsets (default 0)
    /// write-error:N             Nth durable write fails with an I/O error
    /// truncate:N:B              Nth durable write keeps only B bytes (B=* seed-derived)
    /// bitflip:N:OFF             Nth durable write flips a bit at byte OFF (OFF=* seed-derived)
    /// panic:LABEL:K             task K of pool LABEL panics once (retry succeeds)
    /// panic-always:LABEL:K      task K of pool LABEL panics on every attempt
    /// ```
    pub fn parse(spec: &str) -> Result<FailPlan, String> {
        let mut points = Vec::new();
        let mut seed = 0u64;
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(value) = part.strip_prefix("seed=") {
                seed = value
                    .parse()
                    .map_err(|_| format!("bad seed in chaos spec: {value:?}"))?;
                continue;
            }
            let mut fields = part.split(':');
            let kind = fields.next().unwrap_or_default();
            let point = match kind {
                "write-error" => FailPoint::WriteError {
                    nth: parse_num(part, fields.next())?,
                },
                "truncate" => FailPoint::TruncateWrite {
                    nth: parse_num(part, fields.next())?,
                    keep: parse_opt_num(part, fields.next())?,
                },
                "bitflip" => FailPoint::BitFlipWrite {
                    nth: parse_num(part, fields.next())?,
                    offset: parse_opt_num(part, fields.next())?,
                },
                "panic" | "panic-always" => {
                    let label = fields
                        .next()
                        .filter(|l| !l.is_empty())
                        .ok_or_else(|| format!("chaos point {part:?} needs a pool label"))?
                        .to_string();
                    let index = parse_num(part, fields.next())? as usize;
                    if kind == "panic" {
                        FailPoint::PanicOnce { label, index }
                    } else {
                        FailPoint::PanicAlways { label, index }
                    }
                }
                other => return Err(format!("unknown chaos point kind {other:?}")),
            };
            if fields.next().is_some() {
                return Err(format!("trailing fields in chaos point {part:?}"));
            }
            points.push(PlannedPoint {
                point,
                fired: AtomicBool::new(false),
            });
        }
        Ok(FailPlan {
            points,
            seed,
            writes_seen: AtomicU64::new(0),
        })
    }

    /// Derives a deterministic value in `0..bound` for point `salt`
    /// (SplitMix64 over the plan seed; `bound` 0 maps to 0).
    fn derived(&self, salt: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let mut z = self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        z % bound
    }
}

fn parse_num(point: &str, field: Option<&str>) -> Result<u64, String> {
    field
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("chaos point {point:?} needs a numeric field"))
}

/// Parses a numeric field that may be `*` ("derive from the seed").
fn parse_opt_num(point: &str, field: Option<&str>) -> Result<Option<u64>, String> {
    match field {
        Some("*") => Ok(None),
        other => parse_num(point, other).map(Some),
    }
}

impl Chaos for FailPlan {
    fn on_write(&self, label: &str, bytes: &mut Vec<u8>) -> Result<(), InjectedIoError> {
        let nth_now = self.writes_seen.fetch_add(1, Ordering::SeqCst) + 1;
        for (salt, planned) in self.points.iter().enumerate() {
            match &planned.point {
                FailPoint::WriteError { nth }
                    if *nth == nth_now && !planned.fired.swap(true, Ordering::SeqCst) =>
                {
                    return Err(InjectedIoError {
                        what: format!("write #{nth_now} [{label}]"),
                    });
                }
                FailPoint::TruncateWrite { nth, keep }
                    if *nth == nth_now && !planned.fired.swap(true, Ordering::SeqCst) =>
                {
                    let len = bytes.len() as u64;
                    let keep = keep.unwrap_or_else(|| self.derived(salt as u64, len.max(1)));
                    bytes.truncate(keep.min(len) as usize);
                }
                FailPoint::BitFlipWrite { nth, offset }
                    if *nth == nth_now
                        && !planned.fired.swap(true, Ordering::SeqCst)
                        && !bytes.is_empty() =>
                {
                    let len = bytes.len() as u64;
                    let at = offset.unwrap_or_else(|| self.derived(salt as u64, len)) % len;
                    bytes[at as usize] ^= 0x01;
                }
                _ => {}
            }
        }
        Ok(())
    }

    #[expect(
        clippy::panic,
        reason = "panicking is this fail point's entire purpose; fires only from an installed test plan"
    )]
    fn on_task(&self, label: &str, index: usize) {
        for planned in &self.points {
            match &planned.point {
                FailPoint::PanicOnce { label: l, index: k }
                    if l == label && *k == index && !planned.fired.swap(true, Ordering::SeqCst) =>
                {
                    panic!("chaos: injected panic in task {index} of {label}");
                }
                FailPoint::PanicAlways { label: l, index: k } if l == label && *k == index => {
                    panic!("chaos: injected persistent panic in task {index} of {label}");
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_point_kind() {
        let plan = FailPlan::parse(
            "seed=9;write-error:1;truncate:2:10;bitflip:3:*;panic:pool.x:4;panic-always:pool.y:5",
        )
        .expect("parses");
        assert_eq!(plan.seed, 9);
        assert_eq!(
            plan.points
                .iter()
                .map(|p| p.point.clone())
                .collect::<Vec<_>>(),
            vec![
                FailPoint::WriteError { nth: 1 },
                FailPoint::TruncateWrite {
                    nth: 2,
                    keep: Some(10)
                },
                FailPoint::BitFlipWrite {
                    nth: 3,
                    offset: None
                },
                FailPoint::PanicOnce {
                    label: "pool.x".into(),
                    index: 4
                },
                FailPoint::PanicAlways {
                    label: "pool.y".into(),
                    index: 5
                },
            ]
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FailPlan::parse("write-error").is_err());
        assert!(FailPlan::parse("truncate:1:x").is_err());
        assert!(FailPlan::parse("panic::3").is_err());
        assert!(FailPlan::parse("frobnicate:1").is_err());
        assert!(FailPlan::parse("write-error:1:2").is_err());
        assert!(FailPlan::parse("seed=abc").is_err());
    }

    #[test]
    fn write_error_fires_on_exactly_the_nth_write() {
        let plan = FailPlan::parse("write-error:2").unwrap();
        let mut buf = vec![1, 2, 3];
        assert!(plan.on_write("a", &mut buf).is_ok());
        assert!(plan.on_write("b", &mut buf).is_err());
        assert!(plan.on_write("c", &mut buf).is_ok(), "fires once");
        assert_eq!(buf, vec![1, 2, 3], "buffer untouched");
    }

    #[test]
    fn truncate_and_bitflip_mutate_but_report_success() {
        let plan = FailPlan::parse("truncate:1:2;bitflip:2:0").unwrap();
        let mut buf = vec![0xAA; 8];
        assert!(plan.on_write("w", &mut buf).is_ok());
        assert_eq!(buf, vec![0xAA, 0xAA], "torn write kept 2 bytes");
        let mut buf = vec![0xAA; 8];
        assert!(plan.on_write("w", &mut buf).is_ok());
        assert_eq!(buf[0], 0xAB, "bit 0 of byte 0 flipped");
        assert_eq!(&buf[1..], &[0xAA; 7][..], "rest untouched");
    }

    #[test]
    fn derived_offsets_are_seed_deterministic() {
        let a = FailPlan::parse("seed=7;bitflip:1:*").unwrap();
        let b = FailPlan::parse("seed=7;bitflip:1:*").unwrap();
        let c = FailPlan::parse("seed=8;bitflip:1:*").unwrap();
        let (mut ba, mut bb, mut bc) = (vec![0u8; 64], vec![0u8; 64], vec![0u8; 64]);
        a.on_write("w", &mut ba).unwrap();
        b.on_write("w", &mut bb).unwrap();
        c.on_write("w", &mut bc).unwrap();
        assert_eq!(ba, bb, "same seed, same corruption");
        assert_ne!(ba, vec![0u8; 64], "something was corrupted");
        // Different seeds *may* collide on an offset, but not silently do
        // nothing; both corrupt exactly one bit.
        assert_eq!(bc.iter().filter(|&&b| b != 0).count(), 1);
    }

    #[test]
    fn panic_once_fires_once_panic_always_fires_always() {
        let plan = FailPlan::parse("panic:p:3").unwrap();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test observes the injected panic itself"
        )]
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.on_task("p", 3);
        }));
        assert!(err.is_err(), "first attempt panics");
        plan.on_task("p", 3); // retry: no panic
        plan.on_task("other", 3); // different label: never panics

        let plan = FailPlan::parse("panic-always:p:0").unwrap();
        for _ in 0..2 {
            #[expect(
                clippy::disallowed_methods,
                reason = "the test observes the injected panic itself"
            )]
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.on_task("p", 0);
            }));
            assert!(err.is_err(), "every attempt panics");
        }
    }

    #[test]
    fn quiet_handle_injects_nothing() {
        let mut buf = vec![1, 2, 3];
        assert!(handle().on_write("w", &mut buf).is_ok());
        assert_eq!(buf, vec![1, 2, 3]);
        handle().on_task("p", 0); // no panic
    }
}
