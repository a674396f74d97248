//! CSV traffic-matrix parsing for the `redistplan` command-line tool, kept
//! in the library so it is unit-tested. Options go through
//! `telemetry::cli`.

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
}
