//! Command-line flags — the workspace's std-only stand-in for `clap`.
//!
//! Every binary in the workspace reads its arguments through one
//! [`Cli`], so they share one grammar:
//!
//! * a flag is a token; every flag takes the next token as its value
//!   (even one that looks like a flag, `--addr --lazy` sets the address
//!   to `--lazy`), except the *switches* the binary declares, which take
//!   none;
//! * a repeated flag keeps its last value ([`Cli::value`]), or all of
//!   them in order ([`Cli::values`]);
//! * `--help` / `-h` in flag position prints the usage to stdout and
//!   exits 0;
//! * an unknown flag, a flag without its value or a value that does not
//!   parse prints `error: …` and the usage to stderr and exits 2
//!   ([`Cli::fail`]);
//! * a run that fails after a good command line prints `error: …` alone
//!   and exits 1 ([`fatal`]).
//!
//! ```no_run
//! use hf_tensor::cli::Cli;
//!
//! const USAGE: &str = "usage: demo [--k 10] [--verbose]";
//! let mut cli = Cli::new(USAGE, &["--verbose"]);
//! let k: usize = cli.value("--k").unwrap_or(10);
//! let verbose = cli.flag("--verbose");
//! cli.finish();
//! ```

use std::str::FromStr;

/// One flag as given: its name, its value (a switch has none, nor has a
/// flag that ended the command line) and whether a query read it.
struct Arg {
    name: String,
    value: Option<String>,
    read: bool,
}

/// The command line of one binary, read by one query per flag.
pub struct Cli {
    usage: &'static str,
    args: Vec<Arg>,
}

impl Cli {
    /// Reads `std::env::args` (program name skipped). `switches` are the
    /// flags that take no value.
    pub fn new(usage: &'static str, switches: &[&str]) -> Cli {
        Cli::from_args(usage, switches, std::env::args().skip(1))
    }

    /// [`Cli::new`] over the given tokens.
    pub fn from_args(
        usage: &'static str,
        switches: &[&str],
        tokens: impl IntoIterator<Item = String>,
    ) -> Cli {
        let mut tokens = tokens.into_iter();
        let mut args = Vec::new();
        while let Some(name) = tokens.next() {
            if name == "--help" || name == "-h" {
                println!("{usage}");
                std::process::exit(0);
            }
            let value = if switches.contains(&name.as_str()) {
                None
            } else {
                tokens.next()
            };
            args.push(Arg {
                name,
                value,
                read: false,
            });
        }
        Cli { usage, args }
    }

    /// Prints `error: {msg}` and the usage to stderr and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        fail(self.usage, msg)
    }

    /// Every value of `name`, in order.
    pub fn values(&mut self, name: &str) -> Vec<String> {
        let mut values = Vec::new();
        for arg in self.args.iter_mut().filter(|a| a.name == name) {
            arg.read = true;
            match &arg.value {
                Some(v) => values.push(v.clone()),
                None => fail(self.usage, &format!("{name} needs a value")),
            }
        }
        values
    }

    /// The last value of `name` through `parse`, or `None` if the flag is
    /// absent. Every occurrence must parse.
    pub fn value_with<T>(&mut self, name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let mut last = None;
        for v in self.values(name) {
            last = Some(
                parse(&v).unwrap_or_else(|| self.fail(&format!("bad value for {name}: `{v}`"))),
            );
        }
        last
    }

    /// The last value of `name`, or `None` if the flag is absent. Every
    /// occurrence must parse as a `T`.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.value_with(name, |v| v.parse().ok())
    }

    /// Whether the switch `name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let mut given = false;
        for arg in self.args.iter_mut().filter(|a| a.name == name) {
            debug_assert!(arg.value.is_none(), "{name} is not a declared switch");
            arg.read = true;
            given = true;
        }
        given
    }

    /// Fails on the first flag no query read: it is unknown.
    pub fn finish(&self) {
        if let Some(arg) = self.args.iter().find(|a| !a.read) {
            self.fail(&format!("unknown flag `{}`", arg.name));
        }
    }
}

/// [`Cli::fail`] for code that no longer holds the [`Cli`]: a setting
/// read from the command line is refused after parsing.
pub fn fail(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2)
}

/// Prints `error: {msg}` to stderr and exits 1, without the usage: the
/// command line was fine, the run was not.
pub fn fatal(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(tokens: &[&str]) -> Cli {
        Cli::from_args("usage", &["--lazy"], tokens.iter().map(|t| t.to_string()))
    }

    #[test]
    fn the_last_occurrence_wins() {
        let mut c = cli(&["--k", "3", "--lazy", "--k", "5"]);
        assert_eq!(c.value::<usize>("--k"), Some(5));
        assert!(c.flag("--lazy"));
        assert_eq!(c.value::<usize>("--seed"), None);
        assert!(!c.flag("--verbose"));
        c.finish();
    }

    #[test]
    fn repeated_flags_accumulate_in_order() {
        let mut c = cli(&["--set", "b=2", "--seed", "1", "--set", "a=1"]);
        assert_eq!(c.values("--set"), ["b=2", "a=1"]);
        assert_eq!(c.value("--seed"), Some(1u64));
        c.finish();
    }

    #[test]
    fn a_value_that_looks_like_a_flag_is_the_value() {
        let mut c = cli(&["--addr", "--lazy", "--json", "--help"]);
        assert_eq!(c.value::<String>("--addr").as_deref(), Some("--lazy"));
        assert_eq!(c.value::<String>("--json").as_deref(), Some("--help"));
        assert!(!c.flag("--lazy"));
        c.finish();
    }

    #[test]
    fn value_with_maps_every_occurrence() {
        let mut c = cli(&["--scale", "tiny", "--scale", "paper"]);
        let scale = c.value_with("--scale", |v| Some(v.len()));
        assert_eq!(scale, Some(5));
        c.finish();
    }
}
