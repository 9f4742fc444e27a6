//! Machine-readable benchmark emission (`BENCH_*.json`).
//!
//! The report tables are for humans; CI archives the same numbers as
//! JSON artifacts so the perf trajectory (runs/s, wall time,
//! checkpoint hits, speedups) is queryable across commits. Documents
//! are [`Json`] values rendered by the daemon's JSON module, the one
//! JSON renderer in the workspace.

use std::path::{Path, PathBuf};

use ffis_daemon::json::Json;

/// Where benchmark JSON lands: `$FFIS_BENCH_JSON_DIR` when set (the CI
/// artifact staging directory), `target/bench-json` otherwise.
pub fn out_dir() -> PathBuf {
    std::env::var_os("FFIS_BENCH_JSON_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/bench-json"))
}

/// Write one JSON document under [`out_dir`], returning the path.
/// Best-effort by design: a bench must never fail because an artifact
/// directory is read-only — the numbers were already printed.
pub fn save(name: &str, doc: &Json) -> Option<PathBuf> {
    save_in(&out_dir(), name, doc)
}

/// [`save`] into an explicit directory (the `repro` experiments write
/// next to their reports in `--out`).
pub fn save_in(dir: &Path, name: &str, doc: &Json) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(name);
    std::fs::write(&path, format!("{}\n", doc.render())).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCH documents keep the emitter's historical rendering:
    /// integral numbers without a fraction, non-finite numbers as
    /// `null`, escaped strings, compact arrays and objects.
    #[test]
    fn values_render_as_json() {
        assert_eq!(Json::Num(5.0).render(), "5");
        assert_eq!(Json::Num(5.25).render(), "5.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Bool(false).render(), "false");
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())]).render(), "[1,\"x\"]");
        assert_eq!(
            Json::obj([("n", Json::Num(2.0)), ("s", Json::Str("v".into()))]).render(),
            "{\"n\":2,\"s\":\"v\"}"
        );
    }

    #[test]
    fn save_in_writes_the_document() {
        let dir = std::env::temp_dir().join(format!("ffis-bench-json-{}", std::process::id()));
        let doc = Json::obj([
            ("ok", Json::Num(1.0)),
            ("ratio", Json::Num(5.25)),
            ("gap", Json::Num(f64::NAN)),
            ("name", Json::Str("a\"b".into())),
            ("cells", Json::Arr(vec![Json::Bool(true)])),
        ]);
        let path = save_in(&dir, "BENCH_t.json", &doc).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"ok\":1,\"ratio\":5.25,\"gap\":null,\"name\":\"a\\\"b\",\"cells\":[true]}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
