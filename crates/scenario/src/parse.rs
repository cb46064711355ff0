//! Line-oriented `.scn` parser and the canonical `Display` rendering.
//!
//! The grammar is deliberately small — one header key or one timeline
//! directive per line, `#` comments, blank lines ignored:
//!
//! ```text
//! name <word>                 (required)
//! duration <dur>              (required; total measured time)
//! interval <dur>              (required; measurement interval)
//! warmup <dur>                (default 600s)
//! clients <uint>              (optional base-population override)
//! mix <browsing|shopping|ordering>   (default shopping)
//! level <1|2|3>               (default 1)
//! seed <uint>                 (optional RNG-seed override)
//!
//! at <t> intensity <f>
//! at <t> mix <mix>
//! at <t> level <1|2|3>
//! ramp <t0>..<t1> intensity <f> -> <f>
//! sine <t0>..<t1> intensity <base> amp <f> period <dur>
//! spike at <t> peak <f> rise <dur> decay <dur>
//! drift <t0>..<t1> mix <mix> -> <mix>
//! fault at <t> stall <web|appdb> <dur>
//! fault at <t> noise <f> for <dur>
//! fault at <t> outlier <f>
//! fault at <t> drop
//! fault at <t> blackout for <dur>
//! fault at <t> timeout
//! tail at <t> think lognormal <sigma>
//! tail at <t> think off
//! tail at <t> service lognormal <sigma>
//! tail at <t> service off
//! ```
//!
//! Durations are written `<n>s` (seconds, fractional allowed) or
//! `<n>us` (integer microseconds). The canonical rendering emits whole
//! seconds as `Ns` and anything finer as `Nus`, so `Display` output
//! re-parses to an identical [`Scenario`] — a property the test suite
//! pins.
//!
//! Directives whose start time lands at or past `duration` parse fine
//! but compile to nothing ([`Scenario::compile`] drops events at or
//! past the end); [`Scenario::parse_with_warnings`] flags them with the
//! offending line number.

use std::fmt;

use simkernel::SimDuration;
use tpcw::Mix;
use vmstack::ResourceLevel;

use crate::{Directive, Scenario, Tier};

/// A parse failure with the 1-based line it occurred on (line 0 for
/// file-level problems such as a missing required header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line, or 0 for file-level errors.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            f.write_str(&self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// A non-fatal parser diagnostic with the 1-based line it refers to —
/// currently emitted for directives whose start time lands at or past
/// the scenario `duration` (their events are silently dropped by
/// [`Scenario::compile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWarning {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// The most measurement intervals a scenario may span. Compiling builds
/// one boundary per interval, so an unbounded count can exhaust memory.
/// The bundled scenarios span at most 24, generated ones at most 18, and
/// the paper's longest run 90.
const MAX_INTERVALS: u64 = 100_000;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Formats a duration canonically: whole seconds as `Ns`, otherwise
/// integer microseconds as `Nus`. Both forms re-parse exactly.
pub fn format_duration(d: SimDuration) -> String {
    let us = d.as_micros();
    if us.is_multiple_of(1_000_000) {
        format!("{}s", us / 1_000_000)
    } else {
        format!("{us}us")
    }
}

/// Parses a duration token (`300s`, `2.5s`, `1500us`).
pub fn parse_duration(tok: &str) -> Result<SimDuration, String> {
    let bad = || format!("invalid duration {tok:?} (expected e.g. 300s or 1500us)");
    if let Some(us) = tok.strip_suffix("us") {
        let us: u64 = us.parse().map_err(|_| bad())?;
        return Ok(SimDuration::from_micros(us));
    }
    if let Some(secs) = tok.strip_suffix('s') {
        let secs: f64 = secs.parse().map_err(|_| bad())?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(bad());
        }
        return Ok(SimDuration::from_secs_f64(secs));
    }
    Err(bad())
}

fn parse_f64(tok: &str, what: &str) -> Result<f64, String> {
    let v: f64 = tok
        .parse()
        .map_err(|_| format!("invalid {what} {tok:?} (expected a number)"))?;
    if !v.is_finite() {
        return Err(format!("{what} must be finite, got {tok:?}"));
    }
    Ok(v)
}

fn parse_positive(tok: &str, what: &str) -> Result<f64, String> {
    let v = parse_f64(tok, what)?;
    if v <= 0.0 {
        return Err(format!("{what} must be positive, got {tok:?}"));
    }
    Ok(v)
}

fn parse_mix(tok: &str) -> Result<Mix, String> {
    match tok {
        "browsing" => Ok(Mix::Browsing),
        "shopping" => Ok(Mix::Shopping),
        "ordering" => Ok(Mix::Ordering),
        _ => Err(format!(
            "unknown mix {tok:?} (expected browsing, shopping or ordering)"
        )),
    }
}

fn parse_level(tok: &str) -> Result<ResourceLevel, String> {
    match tok {
        "1" => Ok(ResourceLevel::Level1),
        "2" => Ok(ResourceLevel::Level2),
        "3" => Ok(ResourceLevel::Level3),
        _ => Err(format!("unknown level {tok:?} (expected 1, 2 or 3)")),
    }
}

fn level_digit(level: ResourceLevel) -> char {
    match level {
        ResourceLevel::Level1 => '1',
        ResourceLevel::Level2 => '2',
        ResourceLevel::Level3 => '3',
    }
}

fn parse_tier(tok: &str) -> Result<Tier, String> {
    match tok {
        "web" => Ok(Tier::Web),
        "appdb" => Ok(Tier::AppDb),
        _ => Err(format!("unknown tier {tok:?} (expected web or appdb)")),
    }
}

/// Parses a `t0..t1` range token; requires `t0 < t1`.
fn parse_range(tok: &str) -> Result<(SimDuration, SimDuration), String> {
    let (a, b) = tok
        .split_once("..")
        .ok_or_else(|| format!("invalid range {tok:?} (expected t0..t1)"))?;
    let t0 = parse_duration(a)?;
    let t1 = parse_duration(b)?;
    if t0 >= t1 {
        return Err(format!("range {tok:?} must satisfy t0 < t1"));
    }
    Ok((t0, t1))
}

/// Checks an exact token count, naming the directive on mismatch.
fn expect_len(tokens: &[&str], n: usize, usage: &str) -> Result<(), String> {
    if tokens.len() != n {
        return Err(format!("expected `{usage}`"));
    }
    Ok(())
}

fn expect_kw(tok: &str, kw: &str, usage: &str) -> Result<(), String> {
    if tok != kw {
        return Err(format!("expected `{usage}`"));
    }
    Ok(())
}

struct Header {
    name: Option<String>,
    duration: Option<SimDuration>,
    interval: Option<SimDuration>,
    warmup: Option<SimDuration>,
    clients: Option<usize>,
    mix: Option<Mix>,
    level: Option<ResourceLevel>,
    seed: Option<u64>,
}

impl Header {
    fn set<T>(slot: &mut Option<T>, value: T, key: &str) -> Result<(), String> {
        if slot.is_some() {
            return Err(format!("duplicate `{key}` header"));
        }
        *slot = Some(value);
        Ok(())
    }
}

impl Scenario {
    /// Parses a `.scn` source. Errors carry the 1-based line number.
    /// Warnings (see [`Scenario::parse_with_warnings`]) are discarded.
    pub fn parse(src: &str) -> Result<Scenario, ParseError> {
        Self::parse_with_warnings(src).map(|(scn, _)| scn)
    }

    /// Parses a `.scn` source, also returning non-fatal warnings: one
    /// per directive whose start time lands at or past `duration`
    /// (compilation drops its events, so the directive has no effect —
    /// almost always an authoring mistake).
    pub fn parse_with_warnings(src: &str) -> Result<(Scenario, Vec<ParseWarning>), ParseError> {
        let mut header = Header {
            name: None,
            duration: None,
            interval: None,
            warmup: None,
            clients: None,
            mix: None,
            level: None,
            seed: None,
        };
        // Directives keep their source line so start-past-duration
        // warnings can point at the offending line after the header is
        // resolved.
        let mut directives: Vec<(usize, Directive)> = Vec::new();

        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.split_once('#') {
                Some((before, _)) => before,
                None => raw,
            };
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if tokens.is_empty() {
                continue;
            }
            let result: Result<(), String> = match tokens[0] {
                "name" => expect_len(&tokens, 2, "name <word>")
                    .and_then(|()| Header::set(&mut header.name, tokens[1].to_string(), "name")),
                "duration" => expect_len(&tokens, 2, "duration <dur>")
                    .and_then(|()| parse_duration(tokens[1]))
                    .and_then(|d| Header::set(&mut header.duration, d, "duration")),
                "interval" => expect_len(&tokens, 2, "interval <dur>")
                    .and_then(|()| parse_duration(tokens[1]))
                    .and_then(|d| Header::set(&mut header.interval, d, "interval")),
                "warmup" => expect_len(&tokens, 2, "warmup <dur>")
                    .and_then(|()| parse_duration(tokens[1]))
                    .and_then(|d| Header::set(&mut header.warmup, d, "warmup")),
                "clients" => expect_len(&tokens, 2, "clients <uint>")
                    .and_then(|()| {
                        tokens[1]
                            .parse::<usize>()
                            .map_err(|_| format!("invalid client count {:?}", tokens[1]))
                            .and_then(|n| {
                                if n == 0 {
                                    Err("client count must be positive".to_string())
                                } else {
                                    Ok(n)
                                }
                            })
                    })
                    .and_then(|n| Header::set(&mut header.clients, n, "clients")),
                "mix" => expect_len(&tokens, 2, "mix <mix>")
                    .and_then(|()| parse_mix(tokens[1]))
                    .and_then(|m| Header::set(&mut header.mix, m, "mix")),
                "level" => expect_len(&tokens, 2, "level <1|2|3>")
                    .and_then(|()| parse_level(tokens[1]))
                    .and_then(|l| Header::set(&mut header.level, l, "level")),
                "seed" => expect_len(&tokens, 2, "seed <uint>")
                    .and_then(|()| {
                        tokens[1]
                            .parse::<u64>()
                            .map_err(|_| format!("invalid seed {:?}", tokens[1]))
                    })
                    .and_then(|s| Header::set(&mut header.seed, s, "seed")),
                "at" | "ramp" | "sine" | "spike" | "drift" | "fault" | "tail" => {
                    parse_directive(&tokens).map(|d| directives.push((lineno, d)))
                }
                other => Err(format!("unknown keyword {other:?}")),
            };
            if let Err(message) = result {
                return err(lineno, message);
            }
        }

        let name = match header.name {
            Some(n) => n,
            None => return err(0, "missing required `name` header"),
        };
        let duration = match header.duration {
            Some(d) if !d.is_zero() => d,
            Some(_) => return err(0, "`duration` must be positive"),
            None => return err(0, "missing required `duration` header"),
        };
        let interval = match header.interval {
            Some(d) if !d.is_zero() => d,
            Some(_) => return err(0, "`interval` must be positive"),
            None => return err(0, "missing required `interval` header"),
        };
        if interval > duration {
            return err(0, "`interval` must not exceed `duration`");
        }
        let intervals = duration.as_micros() / interval.as_micros();
        if intervals > MAX_INTERVALS {
            return err(
                0,
                format!(
                    "the scenario spans {intervals} intervals (`duration` / `interval`); \
                     at most {MAX_INTERVALS} are allowed"
                ),
            );
        }

        let warnings = directives
            .iter()
            .filter(|(_, d)| d.start() >= duration)
            .map(|(line, d)| ParseWarning {
                line: *line,
                message: format!(
                    "directive starts at {} but `duration` is {}; \
                     events at or past the end are dropped, so it has no effect",
                    format_duration(d.start()),
                    format_duration(duration)
                ),
            })
            .collect();

        Ok((
            Scenario {
                name,
                duration,
                interval,
                warmup: header.warmup.unwrap_or(SimDuration::from_secs(600)),
                clients: header.clients,
                mix: header.mix.unwrap_or(Mix::Shopping),
                level: header.level.unwrap_or(ResourceLevel::Level1),
                seed: header.seed,
                directives: directives.into_iter().map(|(_, d)| d).collect(),
            },
            warnings,
        ))
    }
}

fn parse_directive(tokens: &[&str]) -> Result<Directive, String> {
    match tokens[0] {
        "at" => {
            if tokens.len() != 4 {
                return Err("expected `at <t> intensity|mix|level <value>`".to_string());
            }
            let t = parse_duration(tokens[1])?;
            match tokens[2] {
                "intensity" => Ok(Directive::IntensityAt {
                    t,
                    value: parse_positive(tokens[3], "intensity")?,
                }),
                "mix" => Ok(Directive::MixAt {
                    t,
                    mix: parse_mix(tokens[3])?,
                }),
                "level" => Ok(Directive::LevelAt {
                    t,
                    level: parse_level(tokens[3])?,
                }),
                other => Err(format!(
                    "unknown `at` target {other:?} (expected intensity, mix or level)"
                )),
            }
        }
        "ramp" => {
            let usage = "ramp <t0>..<t1> intensity <from> -> <to>";
            expect_len(tokens, 6, usage)?;
            expect_kw(tokens[2], "intensity", usage)?;
            expect_kw(tokens[4], "->", usage)?;
            let (t0, t1) = parse_range(tokens[1])?;
            Ok(Directive::IntensityRamp {
                t0,
                t1,
                from: parse_positive(tokens[3], "intensity")?,
                to: parse_positive(tokens[5], "intensity")?,
            })
        }
        "sine" => {
            let usage = "sine <t0>..<t1> intensity <base> amp <amp> period <dur>";
            expect_len(tokens, 8, usage)?;
            expect_kw(tokens[2], "intensity", usage)?;
            expect_kw(tokens[4], "amp", usage)?;
            expect_kw(tokens[6], "period", usage)?;
            let (t0, t1) = parse_range(tokens[1])?;
            let base = parse_positive(tokens[3], "intensity")?;
            let amp = parse_f64(tokens[5], "amplitude")?;
            if amp < 0.0 {
                return Err("amplitude must be non-negative".to_string());
            }
            if amp >= base {
                return Err("amplitude must be smaller than the base intensity".to_string());
            }
            let period = parse_duration(tokens[7])?;
            if period.is_zero() {
                return Err("period must be positive".to_string());
            }
            Ok(Directive::IntensitySine {
                t0,
                t1,
                base,
                amp,
                period,
            })
        }
        "spike" => {
            let usage = "spike at <t> peak <f> rise <dur> decay <dur>";
            expect_len(tokens, 9, usage)?;
            expect_kw(tokens[1], "at", usage)?;
            expect_kw(tokens[3], "peak", usage)?;
            expect_kw(tokens[5], "rise", usage)?;
            expect_kw(tokens[7], "decay", usage)?;
            let t = parse_duration(tokens[2])?;
            let peak = parse_positive(tokens[4], "peak intensity")?;
            let rise = parse_duration(tokens[6])?;
            let decay = parse_duration(tokens[8])?;
            if rise.is_zero() && decay.is_zero() {
                return Err("spike needs a positive rise or decay".to_string());
            }
            Ok(Directive::IntensitySpike {
                t,
                peak,
                rise,
                decay,
            })
        }
        "drift" => {
            let usage = "drift <t0>..<t1> mix <from> -> <to>";
            expect_len(tokens, 6, usage)?;
            expect_kw(tokens[2], "mix", usage)?;
            expect_kw(tokens[4], "->", usage)?;
            let (t0, t1) = parse_range(tokens[1])?;
            let from = parse_mix(tokens[3])?;
            let to = parse_mix(tokens[5])?;
            if from == to {
                return Err("drift endpoints must differ".to_string());
            }
            Ok(Directive::MixDrift { t0, t1, from, to })
        }
        "fault" => {
            if tokens.len() < 3 || tokens[1] != "at" {
                return Err("expected `fault at <t> stall|noise|outlier|drop ...`".to_string());
            }
            let t = parse_duration(tokens[2])?;
            match tokens.get(3).copied() {
                Some("stall") => {
                    expect_len(tokens, 6, "fault at <t> stall <web|appdb> <dur>")?;
                    let tier = parse_tier(tokens[4])?;
                    let dur = parse_duration(tokens[5])?;
                    if dur.is_zero() {
                        return Err("stall duration must be positive".to_string());
                    }
                    Ok(Directive::Stall { t, tier, dur })
                }
                Some("noise") => {
                    let usage = "fault at <t> noise <factor> for <dur>";
                    expect_len(tokens, 7, usage)?;
                    expect_kw(tokens[5], "for", usage)?;
                    let factor = parse_positive(tokens[4], "noise factor")?;
                    let dur = parse_duration(tokens[6])?;
                    if dur.is_zero() {
                        return Err("noise duration must be positive".to_string());
                    }
                    Ok(Directive::Noise { t, factor, dur })
                }
                Some("outlier") => {
                    expect_len(tokens, 5, "fault at <t> outlier <factor>")?;
                    Ok(Directive::Outlier {
                        t,
                        factor: parse_positive(tokens[4], "outlier factor")?,
                    })
                }
                Some("drop") => {
                    expect_len(tokens, 4, "fault at <t> drop")?;
                    Ok(Directive::Drop { t })
                }
                Some("blackout") => {
                    let usage = "fault at <t> blackout for <dur>";
                    expect_len(tokens, 6, usage)?;
                    expect_kw(tokens[4], "for", usage)?;
                    let dur = parse_duration(tokens[5])?;
                    if dur.is_zero() {
                        return Err("blackout duration must be positive".to_string());
                    }
                    Ok(Directive::Blackout { t, dur })
                }
                Some("timeout") => {
                    expect_len(tokens, 4, "fault at <t> timeout")?;
                    Ok(Directive::Timeout { t })
                }
                _ => Err(
                    "unknown fault (expected stall, noise, outlier, drop, blackout or timeout)"
                        .to_string(),
                ),
            }
        }
        "tail" => {
            let usage = "tail at <t> think|service lognormal <sigma> | off";
            if tokens.len() < 5 || tokens[1] != "at" {
                return Err(format!("expected `{usage}`"));
            }
            let t = parse_duration(tokens[2])?;
            let sigma = match tokens.get(4).copied() {
                Some("off") => {
                    expect_len(tokens, 5, usage)?;
                    None
                }
                Some("lognormal") => {
                    expect_len(tokens, 6, usage)?;
                    Some(parse_positive(tokens[5], "sigma")?)
                }
                _ => return Err(format!("expected `{usage}`")),
            };
            match tokens[3] {
                "think" => Ok(Directive::ThinkTail { t, sigma }),
                "service" => Ok(Directive::ServiceTail { t, sigma }),
                other => Err(format!(
                    "unknown tail target {other:?} (expected think or service)"
                )),
            }
        }
        _ => unreachable!("caller dispatches only directive keywords"),
    }
}

impl fmt::Display for Directive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = format_duration;
        match self {
            Directive::IntensityAt { t, value } => write!(f, "at {} intensity {value}", d(*t)),
            Directive::IntensityRamp { t0, t1, from, to } => {
                write!(f, "ramp {}..{} intensity {from} -> {to}", d(*t0), d(*t1))
            }
            Directive::IntensitySine {
                t0,
                t1,
                base,
                amp,
                period,
            } => write!(
                f,
                "sine {}..{} intensity {base} amp {amp} period {}",
                d(*t0),
                d(*t1),
                d(*period)
            ),
            Directive::IntensitySpike {
                t,
                peak,
                rise,
                decay,
            } => write!(
                f,
                "spike at {} peak {peak} rise {} decay {}",
                d(*t),
                d(*rise),
                d(*decay)
            ),
            Directive::MixAt { t, mix } => write!(f, "at {} mix {}", d(*t), mix.label()),
            Directive::MixDrift { t0, t1, from, to } => write!(
                f,
                "drift {}..{} mix {} -> {}",
                d(*t0),
                d(*t1),
                from.label(),
                to.label()
            ),
            Directive::LevelAt { t, level } => {
                write!(f, "at {} level {}", d(*t), level_digit(*level))
            }
            Directive::Stall { t, tier, dur } => {
                write!(f, "fault at {} stall {} {}", d(*t), tier.label(), d(*dur))
            }
            Directive::Noise { t, factor, dur } => {
                write!(f, "fault at {} noise {factor} for {}", d(*t), d(*dur))
            }
            Directive::Outlier { t, factor } => write!(f, "fault at {} outlier {factor}", d(*t)),
            Directive::Drop { t } => write!(f, "fault at {} drop", d(*t)),
            Directive::Blackout { t, dur } => {
                write!(f, "fault at {} blackout for {}", d(*t), d(*dur))
            }
            Directive::Timeout { t } => write!(f, "fault at {} timeout", d(*t)),
            Directive::ThinkTail { t, sigma } => match sigma {
                Some(s) => write!(f, "tail at {} think lognormal {s}", d(*t)),
                None => write!(f, "tail at {} think off", d(*t)),
            },
            Directive::ServiceTail { t, sigma } => match sigma {
                Some(s) => write!(f, "tail at {} service lognormal {s}", d(*t)),
                None => write!(f, "tail at {} service off", d(*t)),
            },
        }
    }
}

impl fmt::Display for Scenario {
    /// Canonical rendering; re-parses to an identical scenario.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "name {}", self.name)?;
        writeln!(f, "duration {}", format_duration(self.duration))?;
        writeln!(f, "interval {}", format_duration(self.interval))?;
        writeln!(f, "warmup {}", format_duration(self.warmup))?;
        if let Some(clients) = self.clients {
            writeln!(f, "clients {clients}")?;
        }
        writeln!(f, "mix {}", self.mix.label())?;
        writeln!(f, "level {}", level_digit(self.level))?;
        if let Some(seed) = self.seed {
            writeln!(f, "seed {seed}")?;
        }
        for d in &self.directives {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "name t\nduration 600s\ninterval 300s\n";

    #[test]
    fn minimal_scenario_defaults() {
        let scn = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(scn.name, "t");
        assert_eq!(scn.warmup, SimDuration::from_secs(600));
        assert_eq!(scn.mix, Mix::Shopping);
        assert_eq!(scn.level, ResourceLevel::Level1);
        assert_eq!(scn.clients, None);
        assert_eq!(scn.seed, None);
        assert!(scn.directives.is_empty());
        assert_eq!(scn.iterations(), 2);
    }

    #[test]
    fn durations_parse_both_forms() {
        assert_eq!(parse_duration("300s").unwrap(), SimDuration::from_secs(300));
        assert_eq!(
            parse_duration("2.5s").unwrap(),
            SimDuration::from_micros(2_500_000)
        );
        assert_eq!(
            parse_duration("1500us").unwrap(),
            SimDuration::from_micros(1500)
        );
        assert!(parse_duration("300").is_err());
        assert!(parse_duration("-3s").is_err());
        assert!(parse_duration("3ms").is_err());
    }

    #[test]
    fn canonical_duration_round_trips() {
        for us in [0, 1, 999_999, 1_000_000, 90_000_000, 1_234_567] {
            let d = SimDuration::from_micros(us);
            assert_eq!(parse_duration(&format_duration(d)).unwrap(), d);
        }
    }

    #[test]
    fn every_directive_form_parses() {
        let src = "\
name all
duration 7200s
interval 300s
at 0s intensity 1.5
at 10s mix browsing
at 20s level 2
ramp 0s..600s intensity 1 -> 2
sine 0s..7200s intensity 1 amp 0.4 period 3600s
spike at 100s peak 3 rise 60s decay 300s
drift 0s..600s mix shopping -> ordering
fault at 30s stall appdb 120s
fault at 40s noise 1.5 for 300s
fault at 50s outlier 6
fault at 60s drop
fault at 70s blackout for 600s
fault at 80s timeout
tail at 90s think lognormal 1.2
tail at 95s think off
tail at 100s service lognormal 0.8
tail at 105s service off
";
        let scn = Scenario::parse(src).unwrap();
        assert_eq!(scn.directives.len(), 17);
        let again = Scenario::parse(&scn.to_string()).unwrap();
        assert_eq!(again, scn);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: [(&str, usize, &str); 15] = [
            (
                // Zero-length ramp: would divide by t1 - t0 == 0 at eval.
                "name t\nduration 600s\ninterval 300s\nramp 300s..300s intensity 1 -> 2\n",
                4,
                "t0 < t1",
            ),
            (
                // Zero-period sine: would divide by period == 0 at eval.
                "name t\nduration 600s\ninterval 300s\nsine 0s..600s intensity 2 amp 1 period 0s\n",
                4,
                "period must be positive",
            ),
            (
                "name t\nduration 600s\ninterval 300s\ntail at 0s think lognormal -1\n",
                4,
                "positive",
            ),
            (
                "name t\nduration 600s\ninterval 300s\ntail at 0s cpu lognormal 1\n",
                4,
                "unknown tail target",
            ),
            (
                "name t\nduration 600s\ninterval 300s\nfault at 0s blackout for 0s\n",
                4,
                "blackout duration",
            ),
            (
                "name t\nduration 600s\ninterval 300s\nfault at 0s timeout twice\n",
                4,
                "fault at <t> timeout",
            ),
            (
                "name t\nduration 600s\ninterval 300s\nfault at 0s brownout\n",
                4,
                "unknown fault",
            ),
            (
                "name t\nduration 600s\ninterval 300s\nat 0s intensity -1\n",
                4,
                "positive",
            ),
            ("name t\nbogus 1\n", 2, "unknown keyword"),
            (
                "name t\nduration 600s\ninterval 300s\nramp 600s..0s intensity 1 -> 2\n",
                4,
                "t0 < t1",
            ),
            (
                "name t\nduration 600s\ninterval 300s\nat 0s mix festive\n",
                4,
                "unknown mix",
            ),
            (
                "name t\nduration 600s\ninterval 300s\nfault at 0s stall db 10s\n",
                4,
                "unknown tier",
            ),
            ("name t\nname u\n", 2, "duplicate"),
            (
                "name t\nduration 600s\ninterval 300s\nsine 0s..9s intensity 1 amp 2 period 3s\n",
                4,
                "amplitude",
            ),
            (
                "name t\nduration 600s\ninterval 300s\ndrift 0s..9s mix shopping -> shopping\n",
                4,
                "differ",
            ),
        ];
        for (src, line, needle) in cases {
            let e = Scenario::parse(src).expect_err(src);
            assert_eq!(e.line, line, "{src:?} -> {e}");
            assert!(e.message.contains(needle), "{src:?} -> {e}");
            assert!(e.to_string().starts_with(&format!("line {line}: ")));
        }
    }

    #[test]
    fn file_level_errors_use_line_zero() {
        for (src, needle) in [
            ("duration 600s\ninterval 300s\n", "name"),
            ("name t\ninterval 300s\n", "duration"),
            ("name t\nduration 600s\n", "interval"),
            ("name t\nduration 300s\ninterval 600s\n", "exceed"),
            ("name t\nduration 600s\ninterval 0s\n", "positive"),
        ] {
            let e = Scenario::parse(src).expect_err(src);
            assert_eq!(e.line, 0, "{src:?} -> {e}");
            assert!(e.message.contains(needle), "{src:?} -> {e}");
            assert!(!e.to_string().starts_with("line"));
        }
    }

    /// Compiling this file would allocate one boundary for each of its
    /// 10^15 intervals, 8 PB, and abort the process.
    #[test]
    fn rejects_a_scenario_with_more_intervals_than_it_can_compile() {
        let e = Scenario::parse("name huge\nduration 1000000000s\ninterval 1us\n").unwrap_err();
        assert_eq!(e.line, 0, "{e}");
        assert!(e.message.contains("1000000000000000 intervals"), "{e}");
        assert!(e.message.contains("at most 100000"), "{e}");
        let largest = Scenario::parse("name t\nduration 100000s\ninterval 1s\n").unwrap();
        assert_eq!(largest.iterations(), 100_000);
        assert!(Scenario::parse("name t\nduration 100001s\ninterval 1s\n").is_err());
    }

    #[test]
    fn warns_on_directives_at_or_past_duration() {
        let src = "\
name t
duration 1200s
interval 300s
fault at 1200s drop
at 900s intensity 2
ramp 1500s..1800s intensity 1 -> 2
";
        let (scn, warnings) = Scenario::parse_with_warnings(src).unwrap();
        // All three directives parse; two are flagged.
        assert_eq!(scn.directives.len(), 3);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert_eq!(warnings[0].line, 4);
        assert!(warnings[0].message.contains("1200s"), "{}", warnings[0]);
        assert_eq!(warnings[1].line, 6);
        assert!(warnings[1].to_string().starts_with("line 6: "));
    }

    #[test]
    fn no_warnings_for_in_range_directives() {
        for (_, src) in crate::bundled::all() {
            let (_, warnings) = Scenario::parse_with_warnings(src).unwrap();
            assert!(warnings.is_empty(), "{warnings:?}");
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let src = "# header comment\n\nname t   # trailing\nduration 600s\n\ninterval 300s\n";
        let scn = Scenario::parse(src).unwrap();
        assert_eq!(scn.name, "t");
    }
}
