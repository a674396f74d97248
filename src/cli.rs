//! Helpers for the `redistplan` command-line tool: CSV traffic-matrix
//! parsing and option handling, kept in the library so they are unit-tested.

use kpbs::TrafficMatrix;

/// Parses a traffic matrix from CSV text: one row per sender, comma- (or
/// whitespace-) separated byte counts per receiver. Blank lines and lines
/// starting with `#` are skipped. Values accept `k`/`M`/`G` suffixes
/// (decimal: 1k = 1000).
pub fn parse_matrix_csv(text: &str) -> Result<TrafficMatrix, String> {
    let mut rows: Vec<Vec<u64>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut row = Vec::new();
        for cell in line.split(|c: char| c == ',' || c.is_whitespace()) {
            let cell = cell.trim();
            if cell.is_empty() {
                continue;
            }
            row.push(
                parse_bytes(cell)
                    .ok_or_else(|| format!("line {}: bad value {cell:?}", lineno + 1))?,
            );
        }
        if !row.is_empty() {
            rows.push(row);
        }
    }
    if rows.is_empty() {
        return Err("matrix is empty".into());
    }
    let n2 = rows[0].len();
    if rows.iter().any(|r| r.len() != n2) {
        return Err("rows have inconsistent lengths".into());
    }
    let n1 = rows.len();
    Ok(TrafficMatrix::from_rows(
        n1,
        n2,
        rows.into_iter().flatten().collect(),
    ))
}

/// Parses `123`, `10k`, `25M`, `1.5G` into bytes (decimal suffixes).
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1_000.0),
        'm' | 'M' => (&s[..s.len() - 1], 1_000_000.0),
        'g' | 'G' => (&s[..s.len() - 1], 1_000_000_000.0),
        _ => (s, 1.0),
    };
    let v: f64 = num.parse().ok()?;
    if v < 0.0 || !v.is_finite() {
        return None;
    }
    Some((v * mult).round() as u64)
}

/// Checks an argument list against the options a tool takes: each argument
/// must be `--name` for a name in `flags`, or `--name value` for a name in
/// `valued`. The first unknown argument, or a valued option with no value
/// after it (the list ends, or the next argument is itself an option), is
/// the error, so a typo is refused instead of silently running on defaults.
/// The `opt_*` lookups below assume a list that passed this check.
pub fn check_args(args: &[String], valued: &[&str], flags: &[&str]) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let name = arg.strip_prefix("--").unwrap_or("");
        if valued.contains(&name) {
            match args.next() {
                Some(v) if !v.starts_with("--") => {}
                _ => return Err(format!("{arg} needs a value")),
            }
        } else if !flags.contains(&name) {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(())
}

/// Looks up `--name value` in an argument list.
pub fn opt_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == format!("--{name}"))
        .map(|w| w[1].as_str())
}

/// True when `--name` appears as a flag.
pub fn opt_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == &format!("--{name}"))
}

/// Collects every value of a repeatable `--name value` option, in order.
/// `opt_value` returns only the first; batch options like `--matrix` may
/// appear once per input.
pub fn opt_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    let flag = format!("--{name}");
    args.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].as_str())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_matrix() {
        let m = parse_matrix_csv("1,2,3\n4,5,6\n").unwrap();
        assert_eq!(m.senders(), 2);
        assert_eq!(m.receivers(), 3);
        assert_eq!(m.get(1, 2), 6);
        assert_eq!(m.total_bytes(), 21);
    }

    #[test]
    fn comments_blanks_and_suffixes() {
        let m = parse_matrix_csv("# header\n\n10k, 2M\n0, 1G\n").unwrap();
        assert_eq!(m.get(0, 0), 10_000);
        assert_eq!(m.get(0, 1), 2_000_000);
        assert_eq!(m.get(1, 1), 1_000_000_000);
        assert_eq!(m.get(1, 0), 0);
    }

    #[test]
    fn whitespace_separated() {
        let m = parse_matrix_csv("1 2\n3 4\n").unwrap();
        assert_eq!(m.get(1, 0), 3);
    }

    #[test]
    fn ragged_rejected() {
        assert!(parse_matrix_csv("1,2\n3\n").is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(parse_matrix_csv("# nothing\n").is_err());
    }

    #[test]
    fn bad_value_rejected() {
        let e = parse_matrix_csv("1,x\n").unwrap_err();
        assert!(e.contains("line 1"), "{e}");
    }

    #[test]
    fn byte_suffixes() {
        assert_eq!(parse_bytes("42"), Some(42));
        assert_eq!(parse_bytes("1.5k"), Some(1_500));
        assert_eq!(parse_bytes("2M"), Some(2_000_000));
        assert_eq!(parse_bytes("-1"), None);
        assert_eq!(parse_bytes("nan"), None);
        assert_eq!(parse_bytes(""), None);
    }

    #[test]
    fn check_args_refuses_unknown_flags_and_missing_values() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let check = |list: &[&str]| check_args(&args(list), &["beta", "matrix"], &["gantt"]);
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(check(&["--beta", "-1", "--gantt", "--matrix", "-"]), Ok(()));
        assert_eq!(
            check(&["--bakcbone", "300"]),
            Err("unknown argument \"--bakcbone\"".into())
        );
        assert_eq!(
            check(&["--gantt", "300"]),
            Err("unknown argument \"300\"".into())
        );
        assert_eq!(check(&["--beta"]), Err("--beta needs a value".into()));
        assert_eq!(
            check(&["--beta", "--gantt"]),
            Err("--beta needs a value".into())
        );
        assert_eq!(check(&["--"]), Err("unknown argument \"--\"".into()));
    }

    #[test]
    fn option_helpers() {
        let args: Vec<String> = ["--k", "3", "--gantt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(opt_value(&args, "k"), Some("3"));
        assert_eq!(opt_value(&args, "beta"), None);
        assert!(opt_flag(&args, "gantt"));
        assert!(!opt_flag(&args, "simulate"));
    }

    #[test]
    fn repeated_options() {
        let args: Vec<String> = ["--matrix", "a.csv", "--k", "2", "--matrix", "b.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(opt_values(&args, "matrix"), vec!["a.csv", "b.csv"]);
        assert_eq!(opt_value(&args, "matrix"), Some("a.csv"));
        assert!(opt_values(&args, "beta").is_empty());
    }
}
