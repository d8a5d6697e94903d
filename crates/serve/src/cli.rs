//! Tiny helpers for the workspace's hand-rolled binary CLI (`vital-serve`),
//! so flag parsing and its validation rules live in one place.

/// The value following `flag`, if present.
pub fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

/// The value following `flag` as a `usize`, or `default` when absent.
///
/// # Errors
/// A usage message naming the flag when the value does not parse.
pub fn parse_usize(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("{flag} expects a non-negative integer, got {v:?}")),
    }
}

/// The `--threads` override (clamped to ≥ 1), or `None` when absent.
///
/// # Errors
/// A usage message when the value does not parse.
pub fn parse_threads(args: &[String]) -> Result<Option<usize>, String> {
    match value(args, "--threads") {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(|t| Some(t.max(1)))
            .map_err(|_| format!("--threads expects a positive integer, got {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn values_and_flags_resolve() {
        let a = args(&["bin", "--x", "7", "--quick"]);
        assert_eq!(value(&a, "--x").map(String::as_str), Some("7"));
        assert_eq!(value(&a, "--missing"), None);
        assert_eq!(parse_usize(&a, "--x", 1).unwrap(), 7);
        assert_eq!(parse_usize(&a, "--missing", 5).unwrap(), 5);
        assert!(parse_usize(&args(&["--x", "seven"]), "--x", 1).is_err());
    }

    #[test]
    fn threads_clamp_and_validate() {
        assert_eq!(parse_threads(&args(&["--threads", "0"])).unwrap(), Some(1));
        assert_eq!(parse_threads(&args(&["--threads", "4"])).unwrap(), Some(4));
        assert_eq!(parse_threads(&args(&[])).unwrap(), None);
        assert!(parse_threads(&args(&["--threads", "many"])).is_err());
    }
}
