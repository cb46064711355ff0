//! Diagnostic: inspect cached initial policies — where does each
//! predicted landscape put its optimum, and does the greedy walk from
//! the default configuration pass through dangerous states?
//!
//! Output goes through the obs console exporter; `--quiet` (or
//! `RAC_OBS=off`) suppresses it, which makes the bin usable as a pure
//! cache-validity check via its exit status.

use std::fmt::Write as _;

use obs::Console;
use rac::{Action, ConfigLattice, ConfigMdp, SlaReward};
use rac_bench::cli::{self, Grammar};
use rac_bench::{cache, ONLINE_LEVELS, SLA_MS};
use rl::Environment;
use websim::ServerConfig;

const GRAMMAR: Grammar = Grammar {
    name: "",
    synopsis: "inspect_policy",
    flags: "--quiet  print nothing, like RAC_OBS=off",
    notes: "reads the cached policies under results/cache/",
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv, &[&GRAMMAR]).and_then(|args| match args.operands.first() {
        Some(op) => Err(format!("inspect_policy takes no operands, got `{op}`")),
        None => Ok(args),
    });
    let args = args.unwrap_or_else(|e| {
        eprintln!("{e}");
        eprint!("{}", cli::usage(&[&GRAMMAR]));
        std::process::exit(2);
    });
    let console = Console::from_env(args.has("--quiet"));
    let _span = obs::Span::start("inspect_policy");
    let lattice = ConfigLattice::new(ONLINE_LEVELS);
    for (i, (_, file)) in (1..).zip(rac_bench::standard_policy_files()) {
        let path = std::path::Path::new("results/cache").join(file);
        let Some(policy) = cache::load_policy(&path, &lattice) else {
            console.note(format!("ctx{i}: no cache"));
            continue;
        };
        let (argmin, min) = policy
            .perf_ms
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        let (argmax, max) = policy
            .perf_ms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        console.note(format!(
            "ctx{i}: fit r2={:.3} rmse={:.0} | predicted min {min:.0}ms at {}",
            policy.fit.r_squared,
            policy.fit.rmse,
            lattice.config_at(argmin)
        ));
        console.note(format!(
            "       predicted max {max:.0}ms at {}",
            lattice.config_at(argmax)
        ));

        // Greedy walk from the default configuration.
        let mdp = ConfigMdp::new(&lattice, SlaReward::new(SLA_MS));
        let mut s = lattice.state_of(&ServerConfig::default());
        let mut walk = String::from("       walk:");
        for _ in 0..24 {
            let a = policy.qtable.best_action(s);
            let s2 = mdp.transition(s, a);
            if s2 == s && a == Action::Keep.index() {
                break;
            }
            s = s2;
            let _ = write!(walk, " ->{}", lattice.config_at(s).max_clients());
        }
        let _ = write!(walk, "  end: {}", lattice.config_at(s));
        console.note(walk);
        console.note(format!(
            "       predicted perf at end: {:.0}ms",
            policy.predicted_perf(s)
        ));
    }
}
