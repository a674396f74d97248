//! The one command-line parser every binary of the workspace uses.
//!
//! A `main` asks for its options by name — [`Args::value`] for
//! `--name value`, [`Args::values`] for an option that may repeat,
//! [`Args::flag`] for a bare `--name` — and then calls [`Args::finish`],
//! which refuses whatever was not asked for. No binary keeps a list of its
//! option names beside its lookups. Four things are refused:
//!
//! * an unknown flag, or a word that no option took as its value;
//! * a flag with no value: the list ends, or the next token starts with
//!   `--`;
//! * a malformed value; the message shows the value and the parse error;
//! * a repeat of a flag that does not repeat.
//!
//! Lookups never exit. The first error is kept and [`Args::finish`]
//! reports it as one `<bin>: …` line on stderr with exit status 2, so a
//! binary that does its lookups and then `finish` refuses a bad command
//! line before it reads input, binds a socket or writes a file.
//!
//! ```
//! use telemetry::cli::Args;
//!
//! let mut cli = Args::new("demo", ["--trials", "5", "--csv"].map(String::from));
//! let trials: usize = cli.value("trials").unwrap_or(300);
//! let csv = cli.flag("csv");
//! assert_eq!((trials, csv), (5, true));
//! assert_eq!(cli.check(), Ok(()));
//!
//! let mut cli = Args::new("demo", ["--trails", "5"].map(String::from));
//! let _: Option<usize> = cli.value("trials");
//! assert_eq!(cli.check(), Err("unknown flag \"--trails\"".to_string()));
//! ```

use std::fmt::Display;
use std::str::FromStr;

/// A command line being looked up: the tokens after the program name, and
/// which of them a lookup has taken.
#[derive(Debug)]
pub struct Args {
    bin: &'static str,
    tokens: Vec<String>,
    taken: Vec<bool>,
    error: Option<String>,
}

impl Args {
    /// The process's own arguments, after the program name. `bin` prefixes
    /// every refusal.
    pub fn from_env(bin: &'static str) -> Args {
        Args::new(bin, std::env::args().skip(1))
    }

    /// The arguments `args` (without the program name).
    pub fn new(bin: &'static str, args: impl IntoIterator<Item = String>) -> Args {
        let tokens: Vec<String> = args.into_iter().collect();
        Args {
            bin,
            taken: vec![false; tokens.len()],
            tokens,
            error: None,
        }
    }

    /// True when `--name` is given.
    pub fn flag(&mut self, name: &str) -> bool {
        let flag = format!("--{name}");
        let mut count = 0;
        for (token, taken) in self.tokens.iter().zip(&mut self.taken) {
            if *token == flag {
                *taken = true;
                count += 1;
            }
        }
        if count > 1 {
            self.refuse(format!("{flag} given more than once"));
        }
        count > 0
    }

    /// The value of `--name value`, parsed; `None` when the flag is absent
    /// or its value is missing or malformed (the last two are errors).
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.lookup(name, false).pop()
    }

    /// Every value of a repeatable `--name value`, in order.
    pub fn values<T: FromStr>(&mut self, name: &str) -> Vec<T>
    where
        T::Err: Display,
    {
        self.lookup(name, true)
    }

    /// The leading word when it is not a flag, as a subcommand.
    pub fn subcommand(&mut self) -> Option<String> {
        match self.tokens.first() {
            Some(word) if !word.starts_with("--") => {
                self.taken[0] = true;
                Some(word.clone())
            }
            _ => None,
        }
    }

    /// Records `msg` as the error, unless an earlier one is kept: a binary
    /// refuses an out-of-range value through this before it calls
    /// [`Args::finish`].
    pub fn refuse(&mut self, msg: impl Into<String>) {
        self.error.get_or_insert_with(|| msg.into());
    }

    /// The first error, else the first token no lookup took.
    pub fn check(&self) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match self.tokens.iter().zip(&self.taken).find(|(_, &t)| !t) {
            Some((token, _)) if token.starts_with("--") => Err(format!("unknown flag {token:?}")),
            Some((token, _)) => Err(format!("unexpected argument {token:?}")),
            None => Ok(()),
        }
    }

    /// Exits with status 2 and one `<bin>: …` line on stderr if
    /// [`Args::check`] finds an error.
    pub fn finish(self) {
        if let Err(e) = self.check() {
            eprintln!("{}: {e}", self.bin);
            std::process::exit(2);
        }
    }

    fn lookup<T: FromStr>(&mut self, name: &str, repeats: bool) -> Vec<T>
    where
        T::Err: Display,
    {
        let flag = format!("--{name}");
        let mut found = Vec::new();
        let mut count = 0;
        for i in 0..self.tokens.len() {
            if self.tokens[i] != flag {
                continue;
            }
            self.taken[i] = true;
            count += 1;
            if count == 2 && !repeats {
                self.refuse(format!("{flag} given more than once"));
            }
            let Some(v) = self.tokens.get(i + 1).filter(|v| !v.starts_with("--")) else {
                self.refuse(format!("{flag} needs a value"));
                continue;
            };
            self.taken[i + 1] = true;
            match v.parse() {
                Ok(x) => found.push(x),
                Err(e) => {
                    let msg = format!("bad value {v:?} for {flag}: {e}");
                    self.refuse(msg);
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new("test", list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn option_helpers() {
        let mut cli = args(&["--k", "3", "--gantt", "--beta", "-1"]);
        assert_eq!(cli.value::<usize>("k"), Some(3));
        assert_eq!(cli.value::<f64>("beta"), Some(-1.0));
        assert_eq!(cli.value::<String>("trace"), None);
        assert!(cli.flag("gantt"));
        assert!(!cli.flag("simulate"));
        assert_eq!(cli.check(), Ok(()));
        let mut empty = args(&[]);
        assert_eq!(empty.value("reps").unwrap_or(7u32), 7);
        assert_eq!(empty.check(), Ok(()));
    }

    #[test]
    fn repeated_options() {
        let mut cli = args(&["--matrix", "a.csv", "--k", "2", "--matrix", "-"]);
        assert_eq!(cli.values::<String>("matrix"), ["a.csv", "-"]);
        assert!(cli.values::<String>("beta").is_empty());
        assert_eq!(cli.value::<u32>("k"), Some(2));
        assert_eq!(cli.check(), Ok(()));
        for repeat in [
            &["--jobs", "2", "--jobs", "3"][..],
            &["--seed", "1", "--seed", "1"],
        ] {
            let mut cli = args(repeat);
            let name = &repeat[0][2..];
            let _: Option<u32> = cli.value(name);
            let want = format!("{} given more than once", repeat[0]);
            assert_eq!(cli.check(), Err(want));
        }
        let mut cli = args(&["--csv", "--csv"]);
        assert!(cli.flag("csv"));
        assert_eq!(cli.check(), Err("--csv given more than once".into()));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_refused() {
        let check = |list: &[&str]| {
            let mut cli = args(list);
            let _: Option<f64> = cli.value("beta");
            let _: Vec<String> = cli.values("matrix");
            cli.flag("gantt");
            cli.check()
        };
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(check(&["--beta", "-1", "--gantt", "--matrix", "-"]), Ok(()));
        let unknown = |t: &str| Err(format!("unknown flag \"{t}\""));
        assert_eq!(check(&["--bakcbone", "300"]), unknown("--bakcbone"));
        assert_eq!(check(&["--"]), unknown("--"));
        assert_eq!(check(&["--gantt", "--help"]), unknown("--help"));
        assert_eq!(
            check(&["--gantt", "300"]),
            Err("unexpected argument \"300\"".into())
        );
        assert_eq!(check(&["--beta"]), Err("--beta needs a value".into()));
        assert_eq!(
            check(&["--beta", "--gantt"]),
            Err("--beta needs a value".into())
        );
        assert_eq!(
            check(&["--gantt", "--matrix"]),
            Err("--matrix needs a value".into())
        );
    }

    #[test]
    fn malformed_values_are_refused_with_the_parse_error() {
        let mut cli = args(&["--reps", "abc"]);
        assert_eq!(cli.value::<u32>("reps"), None);
        assert_eq!(
            cli.check(),
            Err("bad value \"abc\" for --reps: invalid digit found in string".into())
        );
        // The first error is the one reported; later lookups still take
        // their tokens.
        let mut cli = args(&["--reps", "x", "--k", "y", "--csv"]);
        let _: Option<u32> = cli.value("reps");
        let _: Option<u32> = cli.value("k");
        cli.refuse("out of range");
        cli.flag("csv");
        assert!(cli
            .check()
            .unwrap_err()
            .starts_with("bad value \"x\" for --reps"));
    }

    #[test]
    fn subcommand_is_the_leading_word_only() {
        let mut cli = args(&["metrics", "--addr", "h:1"]);
        assert_eq!(cli.subcommand().as_deref(), Some("metrics"));
        assert_eq!(cli.value::<String>("addr").as_deref(), Some("h:1"));
        assert_eq!(cli.check(), Ok(()));
        let mut cli = args(&["--addr", "h:1", "metrics"]);
        assert_eq!(cli.subcommand(), None);
        let _: Option<String> = cli.value("addr");
        assert_eq!(cli.check(), Err("unexpected argument \"metrics\"".into()));
    }
}
