//! A minimal property-testing harness (std only).
//!
//! The shape mirrors the `proptest` crate closely enough that porting a
//! suite is mechanical:
//!
//! ```
//! use ratatouille_util::proptest::prelude::*;
//!
//! proptest! {
//!     cases = 64;
//!
//!     #[test]
//!     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! ## Determinism and replay
//!
//! Every case seed is derived from `(base seed, property name, case
//! index)`, so runs are exactly reproducible. On failure the harness
//! shrinks the input (integers toward the range start, vectors and
//! strings toward shorter/simpler) and prints a report containing
//! `RAT_PROPTEST_REPLAY=<seed>`; exporting that variable re-runs the
//! failing case (and only it) under `cargo test <property_name>`.
//!
//! * `RAT_PROPTEST_CASES` — override the per-property case count.
//! * `RAT_PROPTEST_SEED`  — change the base seed (explore new cases).
//! * `RAT_PROPTEST_REPLAY` — run a single reported case seed.

mod strategy;
mod string;

pub use strategy::{any, collection, AnyStrategy, SizeRange, Strategy, VecStrategy};
pub use string::{pattern, StringStrategy};

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::{SeedableRng, StdRng};

/// Everything a property-test file needs.
pub mod prelude {
    pub use super::{any, collection, pattern, Config, SizeRange, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Default number of cases per property when neither the suite nor the
/// environment overrides it.
pub const DEFAULT_CASES: u32 = 64;

/// Fixed base seed: `cargo test` is reproducible out of the box.
const BASE_SEED: u64 = 0x5EED_CA5E_0001;

/// Harness configuration, resolved from the suite header and the
/// environment.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Upper bound on shrink attempts after a failure.
    pub max_shrink_iters: u32,
    /// Base seed mixed into every case seed.
    pub seed: u64,
}

impl Config {
    /// Resolve a config. `suite_cases == 0` means "no suite override".
    pub fn from_env(suite_cases: u32) -> Config {
        let cases = env_u64("RAT_PROPTEST_CASES")
            .map(|v| v as u32)
            .unwrap_or(if suite_cases > 0 { suite_cases } else { DEFAULT_CASES })
            .max(1);
        let seed = env_u64("RAT_PROPTEST_SEED").unwrap_or(BASE_SEED);
        Config {
            cases,
            max_shrink_iters: 512,
            seed,
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// A minimized property failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The property (test function) name.
    pub property: String,
    /// Seed that regenerates the failing case.
    pub case_seed: u64,
    /// Index of the case within the run (`u32::MAX` for replays).
    pub case_index: u32,
    /// Failure message from the minimal input.
    pub message: String,
    /// `Debug` rendering of the originally generated input.
    pub original: String,
    /// `Debug` rendering of the minimal failing input.
    pub minimal: String,
    /// Number of successful shrink steps applied.
    pub shrink_steps: u32,
}

impl Failure {
    /// The human-facing report, including the replay instruction.
    pub fn render(&self) -> String {
        format!(
            "property `{}` failed (case {}, after {} shrink step(s))\n\
             minimal input: {}\n\
             original input: {}\n\
             error: {}\n\
             replay with: RAT_PROPTEST_REPLAY={} cargo test {}",
            self.property,
            self.case_index,
            self.shrink_steps,
            self.minimal,
            self.original,
            self.message,
            self.case_seed,
            self.property,
        )
    }
}

/// FNV-1a, used to mix the property name into case seeds.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn case_seed(base: u64, name: &str, index: u32) -> u64 {
    let mut sm = base ^ fnv1a(name.as_bytes()) ^ ((index as u64) << 32 | index as u64);
    crate::rng::splitmix64(&mut sm)
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses the
/// default backtrace spew for panics the harness is catching — a
/// shrink run provokes dozens of expected panics.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run one case: catch both `Err` returns (from `prop_assert!`) and
/// panics (from plain `assert!`/`unwrap` inside the body).
fn run_case<V: Clone>(f: &dyn Fn(V) -> Result<(), String>, value: V) -> Result<(), String> {
    install_quiet_hook();
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(value)));
    QUIET_PANICS.with(|q| q.set(false));
    match outcome {
        Ok(r) => r,
        Err(payload) => Err(panic_message(&*payload)),
    }
}

fn shrink_failure<S: Strategy>(
    strat: &S,
    f: &dyn Fn(S::Value) -> Result<(), String>,
    mut current: S::Value,
    mut message: String,
    budget: u32,
) -> (S::Value, String, u32) {
    let mut steps = 0u32;
    let mut attempts = 0u32;
    'outer: loop {
        for candidate in strat.shrink(&current) {
            attempts += 1;
            if attempts > budget {
                break 'outer;
            }
            if let Err(msg) = run_case(f, candidate.clone()) {
                current = candidate;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, message, steps)
}

/// Check a property, returning the minimized [`Failure`] instead of
/// panicking — the testable core of the harness.
pub fn check_property<S: Strategy>(
    name: &str,
    cfg: &Config,
    strat: &S,
    f: &dyn Fn(S::Value) -> Result<(), String>,
) -> Result<u32, Failure> {
    let fail_at = |seed: u64, index: u32, value: S::Value, msg: String| -> Failure {
        let original = format!("{:?}", value);
        let (minimal, message, shrink_steps) =
            shrink_failure(strat, f, value, msg, cfg.max_shrink_iters);
        Failure {
            property: name.to_string(),
            case_seed: seed,
            case_index: index,
            message,
            original,
            minimal: format!("{:?}", minimal),
            shrink_steps,
        }
    };

    if let Some(replay) = env_u64("RAT_PROPTEST_REPLAY") {
        let mut rng = StdRng::seed_from_u64(replay);
        let value = strat.generate(&mut rng);
        return match run_case(f, value.clone()) {
            Ok(()) => Ok(1),
            Err(msg) => Err(fail_at(replay, u32::MAX, value, msg)),
        };
    }

    for index in 0..cfg.cases {
        let seed = case_seed(cfg.seed, name, index);
        let mut rng = StdRng::seed_from_u64(seed);
        let value = strat.generate(&mut rng);
        if let Err(msg) = run_case(f, value.clone()) {
            return Err(fail_at(seed, index, value, msg));
        }
    }
    Ok(cfg.cases)
}

/// Check a property and panic with a replayable report on failure.
/// This is what the [`proptest!`] macro expands to.
pub fn run_property<S: Strategy, F>(name: &str, cfg: &Config, strat: S, f: F)
where
    F: Fn(S::Value) -> Result<(), String>,
{
    if let Err(failure) = check_property(name, cfg, &strat, &f) {
        panic!("{}", failure.render());
    }
}

/// Define property tests. See the [module docs](self) for an example.
/// An optional `cases = N;` header sets the per-property case count.
#[macro_export]
macro_rules! proptest {
    (cases = $cases:expr; $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cases) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (0u32) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cases:expr)
      $( $(#[$attr:meta])*
         fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config = $crate::proptest::Config::from_env($cases);
                let strategy = ($($strat,)+);
                $crate::proptest::run_property(
                    stringify!($name),
                    &config,
                    strategy,
                    |($($arg,)+)| {
                        $body
                        // a property body ending in `panic!`/`assert!`
                        // makes this Ok(()) unreachable by design
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Assert a condition inside a [`proptest!`] body; failures report the
/// shrunk input instead of aborting the whole test binary.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond), file!(), line!(), format_args!($($fmt)+)
            ));
        }
    };
}

/// Equality assertion for [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!(
                "assertion failed: {} == {} ({}:{})\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(), l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!(
                "assertion failed: {} == {} ({}:{}): {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(),
                format_args!($($fmt)+), l, r
            ));
        }
    }};
}

/// Inequality assertion for [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err(format!(
                "assertion failed: {} != {} ({}:{})\n  both: {:?}",
                stringify!($left), stringify!($right), file!(), line!(), l
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config() -> Config {
        Config {
            cases: 64,
            max_shrink_iters: 512,
            seed: BASE_SEED,
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = quiet_config();
        let ran = check_property(
            "always_true",
            &cfg,
            &(0u32..100),
            &|_v| Ok(()),
        )
        .expect("property should pass");
        assert_eq!(ran, 64);
    }

    #[test]
    fn failing_property_reports_and_shrinks() {
        // Deliberately broken property: fails for any v >= 10. The
        // minimal counterexample is exactly 10.
        let cfg = quiet_config();
        let failure = check_property(
            "deliberately_broken",
            &cfg,
            &(0u64..1000),
            &|v| {
                if v >= 10 {
                    Err(format!("{v} is too big"))
                } else {
                    Ok(())
                }
            },
        )
        .expect_err("property must fail");
        assert_eq!(failure.minimal, "10", "shrinking should reach the boundary");
        assert!(failure.message.contains("too big"));
        assert!(failure.render().contains("RAT_PROPTEST_REPLAY="));
        assert!(failure.render().contains("deliberately_broken"));
    }

    #[test]
    fn failure_seed_replays_to_same_failure() {
        // The seed a failure reports must regenerate the identical
        // original input — the replay contract.
        let cfg = quiet_config();
        let test = |v: u64| {
            if v % 7 == 3 {
                Err("hit".to_string())
            } else {
                Ok(())
            }
        };
        let failure = check_property("replayable", &cfg, &(0u64..100_000), &test)
            .expect_err("must fail eventually");
        // regenerate from the reported seed exactly as the harness does
        let mut rng = StdRng::seed_from_u64(failure.case_seed);
        let regenerated = (0u64..100_000).generate(&mut rng);
        assert_eq!(format!("{:?}", regenerated), failure.original);
        assert!(test(regenerated).is_err(), "replayed case must still fail");
    }

    #[test]
    fn shrinking_vec_reaches_small_witness() {
        // Property: no vector contains a value >= 50. Minimal failing
        // input should shrink to a single-element vector.
        let cfg = quiet_config();
        let strat = collection::vec(0u32..100, 0..20);
        let failure = check_property(
            "vec_shrink",
            &cfg,
            &strat,
            &|v| {
                if v.iter().any(|&x| x >= 50) {
                    Err("contains big".into())
                } else {
                    Ok(())
                }
            },
        )
        .expect_err("must fail");
        let minimal: Vec<u32> = failure
            .minimal
            .trim_matches(&['[', ']'][..])
            .split(", ")
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(minimal.len(), 1, "minimal witness {:?}", failure.minimal);
        assert_eq!(minimal[0], 50, "boundary value, got {:?}", failure.minimal);
    }

    #[test]
    fn panics_in_body_are_failures_not_aborts() {
        let cfg = quiet_config();
        let failure = check_property(
            "panicking_property",
            &cfg,
            &(0u32..10),
            &|v| {
                if v > 3 {
                    panic!("boom at {v}");
                }
                Ok(())
            },
        )
        .expect_err("must fail");
        assert!(failure.message.contains("boom"));
        assert_eq!(failure.minimal, "4");
    }

    #[test]
    fn case_seeds_differ_across_names_and_indices() {
        let a = case_seed(BASE_SEED, "prop_a", 0);
        let b = case_seed(BASE_SEED, "prop_b", 0);
        let c = case_seed(BASE_SEED, "prop_a", 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, case_seed(BASE_SEED, "prop_a", 0));
    }

    // The macro surface itself, exercised end-to-end.
    proptest! {
        cases = 32;

        #[test]
        fn macro_addition_commutes(a in 0u32..10_000, b in 0u32..10_000) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn macro_patterns_and_vecs(
            s in pattern("[a-z]{0,12}"),
            v in collection::vec(0u8..=255, 0..16),
        ) {
            prop_assert!(s.len() <= 12);
            prop_assert!(v.len() < 16);
        }
    }

    #[test]
    fn macro_tests_run() {
        macro_addition_commutes();
        macro_patterns_and_vecs();
    }
}
