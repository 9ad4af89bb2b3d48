//! Minimal argument parsing: positionals plus `--flag` / `--key value`.

use std::collections::HashMap;
use std::fmt;

/// A command failure. Argument mistakes are reported with the usage
/// text; runtime failures (daemon unreachable, jobs failed) are not —
/// the user's invocation was fine.
#[derive(Debug)]
pub struct ParseError {
    msg: String,
    show_usage: bool,
}

impl ParseError {
    /// An argument-level mistake (prints usage).
    pub fn new(msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            show_usage: true,
        }
    }

    /// A failure of the requested operation itself (no usage text).
    pub fn runtime(msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            show_usage: false,
        }
    }

    /// Whether the error should be followed by the usage text.
    pub fn wants_usage(&self) -> bool {
        self.show_usage
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    /// First positional (the subcommand).
    pub command: String,
    positionals: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

const FLAGS: &[&str] = &[
    "tiny",
    "cosim",
    "stats",
    "cpi-stack",
    "tail",
    "local",
    "now",
    "quiet",
    "progress",
    "plain",
];
const OPTIONS: &[&str] = &[
    "config",
    "insts",
    "warmup",
    "limit",
    "stats-json",
    "events",
    "epoch",
    "addr",
    "workers",
    "queue",
    "port-file",
    "out",
    "results-dir",
    "deadline-ms",
    "retry",
    "interval-ms",
    "iters",
    "coord",
    "backends",
    "vnodes",
    "watchdog-ms",
    "supervise-ms",
    "fail-threshold",
];

impl Args {
    /// Parse `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, ParseError> {
        let mut args = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if FLAGS.contains(&name) {
                    args.flags.push(name.to_string());
                } else if OPTIONS.contains(&name) {
                    let v = it
                        .next()
                        .ok_or_else(|| ParseError::new(format!("--{name} needs a value")))?;
                    args.options.insert(name.to_string(), v.clone());
                } else {
                    return Err(ParseError::new(format!("unknown option --{name}")));
                }
            } else {
                args.positionals.push(a.clone());
            }
        }
        args.command = args
            .positionals
            .first()
            .cloned()
            .ok_or_else(|| ParseError::new("missing command"))?;
        Ok(args)
    }

    /// Positional argument `i` (0 = command).
    pub fn positional(&self, i: usize, what: &str) -> Result<String, ParseError> {
        self.positionals
            .get(i)
            .cloned()
            .ok_or_else(|| ParseError::new(format!("missing {what}")))
    }

    /// All positionals from index `from` on (may be empty).
    pub fn rest(&self, from: usize) -> &[String] {
        self.positionals.get(from..).unwrap_or(&[])
    }

    /// `--key value` option.
    pub fn option(&self, key: &str) -> Option<String> {
        self.options.get(key).cloned()
    }

    /// Numeric option with default.
    pub fn number(&self, key: &str, default: u64) -> Result<u64, ParseError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .replace('_', "")
                .parse()
                .map_err(|_| ParseError::new(format!("--{key} expects a number, got `{v}`"))),
        }
    }

    /// Boolean flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_mixed_arguments() {
        let a = Args::parse(&argv("run art --config wib2k --insts 50_000 --cosim")).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.positional(1, "bench").unwrap(), "art");
        assert_eq!(a.option("config").unwrap(), "wib2k");
        assert_eq!(a.number("insts", 0).unwrap(), 50_000);
        assert!(a.flag("cosim"));
        assert!(!a.flag("tiny"));
    }

    #[test]
    fn rejects_unknown_and_valueless_options() {
        assert!(Args::parse(&argv("run --bogus")).is_err());
        assert!(Args::parse(&argv("run --config")).is_err());
        assert!(Args::parse(&argv("")).is_err());
    }

    #[test]
    fn numeric_errors_are_reported() {
        let a = Args::parse(&argv("run x --insts banana")).unwrap();
        assert!(a.number("insts", 0).is_err());
        assert_eq!(a.number("warmup", 7).unwrap(), 7);
    }
}
