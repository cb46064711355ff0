//! One flag parser for every binary. A [`Grammar`] is a synopsis plus a
//! table of flags; [`parse`] checks arguments against a binary's global
//! grammar plus one subcommand's, and [`usage`] prints the same tables,
//! so what a binary documents is what it accepts. Nothing here exits:
//! each binary prints the error with its usage and picks its exit code.
//!
//! The rules: an argument starting with `--` is a flag, anything else an
//! operand; a flag's value is the next argument and never starts with
//! `--` (`-1` is a value); an undeclared flag is an error; a repeated
//! flag keeps its last value.

use std::fmt::Write as _;
use std::str::FromStr;

/// A synopsis plus the flags it accepts.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    /// The subcommand token that selects this grammar; empty for none.
    pub name: &'static str,
    /// The invocation without flags; empty for a grammar of global flags.
    pub synopsis: &'static str,
    /// One flag per line: `--name`, `<placeholder>` if it takes a value,
    /// then its help.
    pub flags: &'static str,
    /// Lines printed after the flag help.
    pub notes: &'static str,
}

/// A flag's name and, if it takes a value, the value's placeholder.
type Flag = (&'static str, Option<&'static str>);

impl Grammar {
    /// The flags of the table, in order.
    fn table(&self) -> impl Iterator<Item = Flag> {
        self.flags.lines().map(|line| {
            let mut words = line.split_whitespace();
            let name = words.next().unwrap_or_default();
            let value = words.next().and_then(|w| w.strip_prefix('<'));
            (name, value.and_then(|w| w.strip_suffix('>')))
        })
    }

    fn flag(&self, arg: &str) -> Option<Flag> {
        self.table().find(|(name, _)| *name == arg)
    }
}

/// The flags and operands of one parsed argument list.
#[derive(Debug, Default)]
pub struct Args {
    flags: Vec<(&'static str, Option<String>)>,
    /// Every argument that is neither a flag nor a flag's value, in order.
    pub operands: Vec<String>,
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    /// The value of `flag`'s last occurrence.
    pub fn get(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(name, _)| *name == flag)?;
        value.as_deref()
    }

    /// The value of `flag` read as a `T`; `what` describes a valid value
    /// in the error, e.g. `"a positive integer"`.
    pub fn value<T: FromStr>(&self, flag: &str, what: &str) -> Result<Option<T>, String> {
        self.value_by(flag, what, |v| v.parse().ok())
    }

    /// [`value`](Self::value) with a custom reader, for a name from a
    /// fixed set or a bounded number.
    pub fn value_by<T>(
        &self,
        flag: &str,
        what: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(text) = self.get(flag) else {
            return Ok(None);
        };
        read(text)
            .map(Some)
            .ok_or_else(|| invalid(flag, text, what))
    }
}

/// Reads `text`, the operand called `name`, as a `T`; the error names
/// both and says `what` was expected.
pub fn typed<T: FromStr>(name: &str, text: &str, what: &str) -> Result<T, String> {
    text.parse().map_err(|_| invalid(name, text, what))
}

fn invalid(name: &str, text: &str, what: &str) -> String {
    format!("{name} needs {what}, got `{text}`")
}

/// The subcommand token of `args`: the first argument that is neither a
/// `global` flag nor such a flag's value.
pub fn subcommand<'a>(args: &'a [String], global: &Grammar) -> Option<&'a str> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match global.flag(arg) {
            Some((_, Some(_))) => {
                it.next();
            }
            Some((_, None)) => {}
            None => return Some(arg),
        }
    }
    None
}

/// Checks `args` against the union of `grammars`' flags.
///
/// # Errors
///
/// One line naming the offending argument.
pub fn parse(args: &[String], grammars: &[&Grammar]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            parsed.operands.push(arg.clone());
            continue;
        }
        let Some((name, placeholder)) = grammars.iter().find_map(|g| g.flag(arg)) else {
            return Err(format!("unknown flag {arg}"));
        };
        let value = match placeholder {
            None => None,
            Some(p) => match it.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => return Err(format!("{arg} needs a value <{p}>")),
            },
        };
        parsed.flags.push((name, value));
    }
    Ok(parsed)
}

/// The `usage:` lines of `grammars`: each non-empty synopsis followed by
/// its flags.
pub fn synopses(grammars: &[&Grammar]) -> String {
    let mut out = String::new();
    for (i, g) in grammars
        .iter()
        .filter(|g| !g.synopsis.is_empty())
        .enumerate()
    {
        out.push_str(if i == 0 { "usage: " } else { "       " });
        out.push_str(g.synopsis);
        for (name, placeholder) in g.table() {
            let value = placeholder.map(|p| format!(" <{p}>")).unwrap_or_default();
            let _ = write!(out, " [{name}{value}]");
        }
        out.push('\n');
    }
    out
}

/// Usage text for `grammars`: their [`synopses`], their flag tables,
/// then their notes.
pub fn usage(grammars: &[&Grammar]) -> String {
    let mut out = synopses(grammars);
    for line in grammars.iter().flat_map(|g| g.flags.lines()) {
        let _ = writeln!(out, "  {line}");
    }
    for line in grammars.iter().flat_map(|g| g.notes.lines()) {
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GLOBAL: Grammar = Grammar {
        name: "",
        synopsis: "",
        flags: "\
--quick         fast
--serve <addr>  serve",
        notes: "",
    };
    const SUB: Grammar = Grammar {
        name: "sub",
        synopsis: "prog sub [<n>]",
        flags: "\
--out <dir>  output
--seed <N>   seed",
        notes: "a note",
    };

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_value_never_starts_with_double_dash() {
        let err = parse(&argv(&["sub", "--out", "--quick"]), &[&GLOBAL, &SUB]).unwrap_err();
        assert!(err.contains("--out needs a value"), "{err}");
        let err = parse(&argv(&["sub", "--out"]), &[&GLOBAL, &SUB]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        let args = parse(&argv(&["--seed", "-1"]), &[&SUB]).unwrap();
        assert_eq!(args.get("--seed"), Some("-1"));
    }

    #[test]
    fn the_last_of_a_repeated_flag_wins() {
        let args = parse(&argv(&["--seed", "1", "--seed", "2"]), &[&SUB]).unwrap();
        assert_eq!(args.value::<u64>("--seed", "a seed"), Ok(Some(2)));
    }

    #[test]
    fn an_unknown_flag_is_named() {
        let err = parse(&argv(&["sub", "--bogus"]), &[&GLOBAL, &SUB]).unwrap_err();
        assert_eq!(err, "unknown flag --bogus");
    }

    #[test]
    fn a_typed_parse_error_names_the_flag_and_the_value() {
        let args = parse(&argv(&["--seed", "abc"]), &[&SUB]).unwrap();
        let err = args
            .value::<u64>("--seed", "an unsigned integer")
            .unwrap_err();
        assert_eq!(err, "--seed needs an unsigned integer, got `abc`");
        assert_eq!(args.value::<u64>("--out", "a number"), Ok(None));
        let err = typed::<u8>("count", "300", "a small integer").unwrap_err();
        assert!(err.contains("count") && err.contains("300"), "{err}");
    }

    #[test]
    fn global_flags_parse_before_and_after_the_subcommand() {
        let raw = argv(&["--quick", "--serve", "a:0", "sub", "7", "--out", "d"]);
        assert_eq!(subcommand(&raw, &GLOBAL), Some("sub"));
        let args = parse(&raw, &[&GLOBAL, &SUB]).unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.get("--serve"), Some("a:0"));
        assert_eq!(args.get("--out"), Some("d"));
        assert_eq!(args.operands, ["sub", "7"]);

        let raw = argv(&["sub", "--serve", "a:0", "--quick"]);
        assert_eq!(subcommand(&raw, &GLOBAL), Some("sub"));
        let args = parse(&raw, &[&GLOBAL, &SUB]).unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.get("--serve"), Some("a:0"));
        assert_eq!(subcommand(&argv(&["--quick"]), &GLOBAL), None);
    }

    #[test]
    fn usage_prints_the_tables_it_parses() {
        assert_eq!(
            usage(&[&SUB, &GLOBAL]),
            "usage: prog sub [<n>] [--out <dir>] [--seed <N>]\n  --out <dir>  output\n  \
             --seed <N>   seed\n  --quick         fast\n  --serve <addr>  serve\na note\n"
        );
    }
}
