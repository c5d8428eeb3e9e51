//! Shared helpers for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! and prints the paper's own numbers next to the measured ones, so the
//! comparison (EXPERIMENTS.md) can be refreshed with a single run.

pub mod paper;
pub mod traced;

/// Flags shared by the figure binaries: `--trace-out PATH` writes a
/// Chrome `trace_event` JSON of the figure's golden scenario,
/// `--metrics-out PATH` writes the collected histograms and counters
/// (JSON when the path ends in `.json`, flat text otherwise). Both
/// accept `--flag VALUE` and `--flag=VALUE` forms and coexist with the
/// positional scale argument.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsArgs {
    /// Destination for the Chrome trace, if requested.
    pub trace_out: Option<String>,
    /// Destination for the metrics dump, if requested.
    pub metrics_out: Option<String>,
}

impl ObsArgs {
    /// Parses the shared flags out of the process arguments.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on a flag without a value or an
    /// unknown `--` flag.
    pub fn parse() -> Self {
        let mut out = ObsArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                continue; // positional (scale) — scale_arg's business
            };
            let (name, value) = match flag.split_once('=') {
                Some((n, v)) => (n.to_owned(), Some(v.to_owned())),
                None => (flag.to_owned(), args.next()),
            };
            let value = value.unwrap_or_else(|| panic!("--{name} requires a value"));
            match name.as_str() {
                "trace-out" => out.trace_out = Some(value),
                "metrics-out" => out.metrics_out = Some(value),
                _ => panic!("unknown flag --{name}; known: --trace-out, --metrics-out"),
            }
        }
        out
    }

    /// Whether any artifact was requested.
    pub fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Writes the requested artifacts from a traced run's collector and
    /// reports each written path on stdout.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from writing either artifact.
    pub fn write(&self, col: &cenju4::obs::SpanCollector) -> std::io::Result<()> {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, cenju4::obs::chrome_trace_json(col))?;
            println!("wrote Chrome trace to {path} (open in chrome://tracing or Perfetto)");
        }
        if let Some(path) = &self.metrics_out {
            let m = col.metrics();
            let dump = if path.ends_with(".json") {
                m.to_json()
            } else {
                m.to_text()
            };
            std::fs::write(path, dump)?;
            println!("wrote metrics to {path}");
        }
        Ok(())
    }
}

/// Formats a measured-vs-paper pair with the relative error.
///
/// # Examples
///
/// ```
/// let s = cenju4_bench::vs(1710.0, 1690.0);
/// assert!(s.contains("+1.2%"));
/// ```
pub fn vs(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return format!("{measured:.1} (paper: n/a)");
    }
    let err = (measured - paper) / paper * 100.0;
    format!("{measured:.1} (paper {paper:.1}, {err:+.1}%)")
}

/// Reads a problem-scale multiplier from the first *positional* CLI
/// argument (default `default`), skipping over any `--flag`/`--flag=v`
/// pairs so the scale coexists with [`ObsArgs`].
///
/// # Panics
///
/// Panics with a usage message if the argument is not a positive number.
pub fn scale_arg(default: f64) -> f64 {
    let mut args = std::env::args().skip(1);
    while let Some(s) = args.next() {
        if let Some(flag) = s.strip_prefix("--") {
            if !flag.contains('=') {
                args.next(); // skip the flag's value
            }
            continue;
        }
        let v: f64 = s
            .parse()
            .unwrap_or_else(|_| panic!("usage: <binary> [scale]; got {s:?}"));
        assert!(v > 0.0, "scale must be positive");
        return v;
    }
    default
}

/// Prints a rule line of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vs_formats_error() {
        assert!(vs(110.0, 100.0).contains("+10.0%"));
        assert!(vs(90.0, 100.0).contains("-10.0%"));
        assert!(vs(5.0, 0.0).contains("n/a"));
    }
}
