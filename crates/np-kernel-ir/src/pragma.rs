//! The `np` pragma: the directive a developer attaches to a parallel loop
//! (Section 3.6 of the paper).
//!
//! Textual grammar, deliberately close to OpenMP:
//!
//! ```text
//! np parallel for [reduction(op:var[,var...])] [scan(op:var[,var...])]
//!                 [copyin(var[,var...])] [select(var[,var...])]
//!                 [num_threads(N)] [np_type(inter|intra)] [sm(VERSION)]
//! ```
//!
//! with `op` one of `+ * min max`. The `copyin` clause pins live-in
//! variables to broadcast (otherwise the compiler's liveness analysis finds
//! them); `select` marks conditional live-outs handled by the
//! initialize-to-zero-then-reduce trick of Section 3.2; `num_threads`,
//! `np_type` and `sm` are the tuning hints of Section 3.6.

/// Reduction / scan combining operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    Add,
    Mul,
    Min,
    Max,
}

impl RedOp {
    pub fn symbol(self) -> &'static str {
        match self {
            RedOp::Add => "+",
            RedOp::Mul => "*",
            RedOp::Min => "min",
            RedOp::Max => "max",
        }
    }

    fn parse(s: &str) -> Result<Self, PragmaError> {
        match s {
            "+" => Ok(RedOp::Add),
            "*" => Ok(RedOp::Mul),
            "min" => Ok(RedOp::Min),
            "max" => Ok(RedOp::Max),
            other => Err(PragmaError::BadOp(other.to_string())),
        }
    }
}

/// Preferred iteration-distribution scheme (Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NpType {
    /// Slaves of one master live in *different* warps (master id along X).
    InterWarp,
    /// Slaves of one master live in the *same* warp (master id along Y).
    IntraWarp,
}

/// A parsed `np parallel for` directive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NpPragma {
    pub reductions: Vec<(RedOp, String)>,
    pub scans: Vec<(RedOp, String)>,
    pub copy_in: Vec<String>,
    pub select_out: Vec<String>,
    pub num_threads: Option<u32>,
    pub np_type: Option<NpType>,
    pub sm_version: Option<u32>,
}

/// Errors produced by the pragma parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PragmaError {
    /// Not an `np parallel for` directive at all.
    NotNp(String),
    /// Unknown clause name.
    UnknownClause(String),
    /// Unknown reduction/scan operator.
    BadOp(String),
    /// Clause argument list malformed.
    BadArgs(String),
}

impl std::fmt::Display for PragmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PragmaError::NotNp(s) => write!(f, "not an `np parallel for` pragma: {s:?}"),
            PragmaError::UnknownClause(s) => write!(f, "unknown clause {s:?}"),
            PragmaError::BadOp(s) => write!(f, "unknown reduction operator {s:?}"),
            PragmaError::BadArgs(s) => write!(f, "malformed clause arguments: {s:?}"),
        }
    }
}

impl std::error::Error for PragmaError {}

impl NpPragma {
    /// A bare `np parallel for` with no clauses.
    pub fn parallel_for() -> Self {
        NpPragma::default()
    }

    /// Add a reduction clause (builder style).
    pub fn with_reduction(mut self, op: RedOp, var: &str) -> Self {
        self.reductions.push((op, var.to_string()));
        self
    }

    /// Add a scan clause (builder style).
    pub fn with_scan(mut self, op: RedOp, var: &str) -> Self {
        self.scans.push((op, var.to_string()));
        self
    }

    /// Add a select (conditional live-out) clause.
    pub fn with_select(mut self, var: &str) -> Self {
        self.select_out.push(var.to_string());
        self
    }

    /// Parse the textual form. Leading `#pragma` is optional.
    pub fn parse(text: &str) -> Result<Self, PragmaError> {
        let t = text.trim();
        let t = t.strip_prefix("#pragma").map(str::trim_start).unwrap_or(t);
        let rest = t
            .strip_prefix("np")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix("parallel").map(str::trim_start))
            .and_then(|r| r.strip_prefix("for"))
            .ok_or_else(|| PragmaError::NotNp(text.to_string()))?;

        let mut out = NpPragma::default();
        let mut s = rest.trim_start();
        while !s.is_empty() {
            let open = s.find('(').ok_or_else(|| PragmaError::BadArgs(s.to_string()))?;
            let name = s[..open].trim();
            let close = s[open..]
                .find(')')
                .map(|c| open + c)
                .ok_or_else(|| PragmaError::BadArgs(s.to_string()))?;
            let args = &s[open + 1..close];
            match name {
                "reduction" | "scan" => {
                    let (op_s, vars) = args
                        .split_once(':')
                        .ok_or_else(|| PragmaError::BadArgs(args.to_string()))?;
                    let op = RedOp::parse(op_s.trim())?;
                    for var in vars.split(',') {
                        let var = var.trim();
                        if var.is_empty() {
                            return Err(PragmaError::BadArgs(args.to_string()));
                        }
                        if name == "reduction" {
                            out.reductions.push((op, var.to_string()));
                        } else {
                            out.scans.push((op, var.to_string()));
                        }
                    }
                }
                "copyin" | "select" => {
                    for var in args.split(',') {
                        let var = var.trim();
                        if var.is_empty() {
                            return Err(PragmaError::BadArgs(args.to_string()));
                        }
                        if name == "copyin" {
                            out.copy_in.push(var.to_string());
                        } else {
                            out.select_out.push(var.to_string());
                        }
                    }
                }
                "num_threads" => {
                    out.num_threads = Some(
                        args.trim()
                            .parse()
                            .map_err(|_| PragmaError::BadArgs(args.to_string()))?,
                    );
                }
                "np_type" => {
                    out.np_type = Some(match args.trim() {
                        "inter" => NpType::InterWarp,
                        "intra" => NpType::IntraWarp,
                        other => return Err(PragmaError::BadArgs(other.to_string())),
                    });
                }
                "sm" => {
                    out.sm_version = Some(
                        args.trim()
                            .parse()
                            .map_err(|_| PragmaError::BadArgs(args.to_string()))?,
                    );
                }
                other => return Err(PragmaError::UnknownClause(other.to_string())),
            }
            s = s[close + 1..].trim_start();
        }
        Ok(out)
    }

    /// Render back to the canonical textual form (round-trips with
    /// [`NpPragma::parse`]).
    pub fn to_text(&self) -> String {
        let mut s = String::from("np parallel for");
        let grouped = |items: &[(RedOp, String)], clause: &str, s: &mut String| {
            // Group variables by operator to keep the text compact.
            for op in [RedOp::Add, RedOp::Mul, RedOp::Min, RedOp::Max] {
                let vars: Vec<&str> = items
                    .iter()
                    .filter(|(o, _)| *o == op)
                    .map(|(_, v)| v.as_str())
                    .collect();
                if !vars.is_empty() {
                    s.push_str(&format!(" {clause}({}:{})", op.symbol(), vars.join(",")));
                }
            }
        };
        grouped(&self.reductions, "reduction", &mut s);
        grouped(&self.scans, "scan", &mut s);
        if !self.copy_in.is_empty() {
            s.push_str(&format!(" copyin({})", self.copy_in.join(",")));
        }
        if !self.select_out.is_empty() {
            s.push_str(&format!(" select({})", self.select_out.join(",")));
        }
        if let Some(n) = self.num_threads {
            s.push_str(&format!(" num_threads({n})"));
        }
        if let Some(t) = self.np_type {
            s.push_str(match t {
                NpType::InterWarp => " np_type(inter)",
                NpType::IntraWarp => " np_type(intra)",
            });
        }
        if let Some(v) = self.sm_version {
            s.push_str(&format!(" sm({v})"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_pragma() {
        let p = NpPragma::parse("#pragma np parallel for").unwrap();
        assert_eq!(p, NpPragma::default());
    }

    #[test]
    fn parses_figure5_style_pragmas() {
        let p = NpPragma::parse("#pragma np parallel for reduction(+:sum)").unwrap();
        assert_eq!(p.reductions, vec![(RedOp::Add, "sum".to_string())]);

        let p = NpPragma::parse("#pragma np parallel for reduction(+:var,ep)").unwrap();
        assert_eq!(
            p.reductions,
            vec![(RedOp::Add, "var".to_string()), (RedOp::Add, "ep".to_string())]
        );
    }

    #[test]
    fn parses_all_clauses() {
        let p = NpPragma::parse(
            "np parallel for reduction(max:m) scan(+:acc) copyin(off, w) select(x) \
             num_threads(8) np_type(intra) sm(30)",
        )
        .unwrap();
        assert_eq!(p.reductions, vec![(RedOp::Max, "m".to_string())]);
        assert_eq!(p.scans, vec![(RedOp::Add, "acc".to_string())]);
        assert_eq!(p.copy_in, vec!["off", "w"]);
        assert_eq!(p.select_out, vec!["x"]);
        assert_eq!(p.num_threads, Some(8));
        assert_eq!(p.np_type, Some(NpType::IntraWarp));
        assert_eq!(p.sm_version, Some(30));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(NpPragma::parse("omp parallel for"), Err(PragmaError::NotNp(_))));
        assert!(matches!(
            NpPragma::parse("np parallel for frobnicate(3)"),
            Err(PragmaError::UnknownClause(_))
        ));
        assert!(matches!(
            NpPragma::parse("np parallel for reduction(?:x)"),
            Err(PragmaError::BadOp(_))
        ));
        assert!(matches!(
            NpPragma::parse("np parallel for reduction(+)"),
            Err(PragmaError::BadArgs(_))
        ));
        assert!(matches!(
            NpPragma::parse("np parallel for num_threads(eight)"),
            Err(PragmaError::BadArgs(_))
        ));
    }

    #[test]
    fn round_trips() {
        let texts = [
            "np parallel for",
            "np parallel for reduction(+:sum)",
            "np parallel for reduction(+:var,ep) scan(+:acc)",
            "np parallel for copyin(a,b) select(x) num_threads(4) np_type(inter) sm(35)",
        ];
        for t in texts {
            let p = NpPragma::parse(t).unwrap();
            assert_eq!(NpPragma::parse(&p.to_text()).unwrap(), p, "round trip of {t:?}");
        }
    }
}
