//! The command line of the workspace's hand-rolled binary (`vital-serve`):
//! one pass checks every argument against the flags the binary knows, so a
//! typo or a stale flag stops the boot instead of being ignored.

/// A command line checked against a fixed set of flags, each of which
/// takes exactly one value.
#[derive(Debug)]
pub struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Reads `args` (the program name excluded) as `--flag value` pairs.
    ///
    /// # Errors
    /// A message naming the offending argument: a flag `known` does not
    /// list, a flag with no value or whose value is itself a flag, or a
    /// value with no flag.
    pub fn parse(args: &'a [String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            if !known.contains(&flag.as_str()) {
                return Err(if flag.starts_with("--") {
                    format!("unknown flag {flag}")
                } else {
                    format!("unexpected argument {flag:?}")
                });
            }
            match rest.next() {
                Some(value) if !value.starts_with("--") => {
                    pairs.push((flag.as_str(), value.as_str()))
                }
                _ => return Err(format!("{flag} expects a value")),
            }
        }
        Ok(Flags { pairs })
    }

    /// The value given to `flag`, if present.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }

    /// The value given to `flag` as a `usize`, or `default` when absent.
    ///
    /// # Errors
    /// A usage message naming the flag when the value does not parse.
    pub fn usize(&self, flag: &str, default: usize) -> Result<usize, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| format!("{flag} expects a non-negative integer, got {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: [&str; 3] = ["--x", "--addr", "--workers"];

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn values_and_flags_resolve() {
        let a = args(&["--x", "7", "--addr", "-1"]);
        let flags = Flags::parse(&a, &KNOWN).unwrap();
        assert_eq!(flags.value("--x"), Some("7"));
        assert_eq!(flags.value("--addr"), Some("-1"));
        assert_eq!(flags.value("--workers"), None);
        assert_eq!(flags.usize("--x", 1).unwrap(), 7);
        assert_eq!(flags.usize("--workers", 5).unwrap(), 5);
        let a = args(&["--x", "seven"]);
        let message = Flags::parse(&a, &KNOWN)
            .unwrap()
            .usize("--x", 1)
            .unwrap_err();
        assert!(message.contains("--x"), "{message}");
    }

    #[test]
    fn unknown_stray_and_valueless_flags_are_refused_by_name() {
        for (line, named) in [
            (
                &["--x", "8", "--max-batchh", "8"][..],
                "unknown flag --max-batchh",
            ),
            (&["--max-batch", "8"], "unknown flag --max-batch"),
            (&["--addr", "--workers", "2"], "--addr expects a value"),
            (&["--workers"], "--workers expects a value"),
            (&["--x", "1", "2"], "unexpected argument \"2\""),
        ] {
            let a = args(line);
            let message = Flags::parse(&a, &KNOWN).unwrap_err();
            assert_eq!(message, named, "{line:?}");
        }
    }
}
