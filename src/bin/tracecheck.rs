//! `tracecheck` — validates Chrome trace-event JSON files produced by
//! `implicitc --trace`.
//!
//! ```text
//! tracecheck [--require-resolution] <file.json>...
//! ```
//!
//! Checks, per file:
//!
//! - the file parses as JSON (with `implicit_core::json::parse_json`,
//!   the parser the daemon uses, which bounds nesting depth and
//!   rejects raw control characters inside strings);
//! - the top level is an object with a `traceEvents` array (the
//!   Chrome trace-event "JSON Object Format");
//! - every event carries the required fields with the right types:
//!   `name`/`cat`/`ph` strings, `ts`/`pid`/`tid` numbers, and a `ph`
//!   that is one of `B`, `E`, or `i`;
//! - instant events (`ph:"i"`) carry a scope `s`;
//! - `B`/`E` duration events are properly nested per `tid`: every
//!   `E` closes the most recent open `B` with the same name, and no
//!   span is left open at the end;
//! - at least one `phase`-category span is present;
//! - cache-marker placement: `ic`-category instants (`ic_hit` /
//!   `ic_miss`, the dictionary inline cache) only occur while an
//!   `elaborate` span is open on their thread, and `compile`-category
//!   `fusion` instants (the superinstruction fusion summary) only
//!   while a `compile` span is open.
//!
//! With `--require-resolution`, additionally requires at least one
//! `resolution`-category event (CI uses this on corpora whose
//! programs are known to contain implicit queries).
//!
//! Exit status 0 when every file validates, 1 otherwise.

use std::process::ExitCode;

use implicit_core::json::{parse_json, Json};

/// A JSON number as `f64`, whether it was written as an integer or not.
fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Int(n) => Some(*n as f64),
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

/// Validates one parsed trace document. Returns a short summary line
/// on success.
fn validate(doc: &Json, require_resolution: bool) -> Result<String, String> {
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        Some(_) => return Err("`traceEvents` is not an array".to_owned()),
        None => return Err("missing top-level `traceEvents` array".to_owned()),
    };
    // Per-tid stack of open B spans (by name).
    let mut open: Vec<(u64, Vec<String>)> = Vec::new();
    let mut phase_spans = 0usize;
    let mut resolution_events = 0usize;
    let mut ic_events = 0usize;
    let mut fusion_events = 0usize;
    for (ix, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("event #{ix}: {field}");
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string `name`"))?
            .to_owned();
        let cat = ev
            .get("cat")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string `cat`"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string `ph`"))?;
        for field in ["ts", "pid", "tid"] {
            if ev.get(field).and_then(num).is_none() {
                return Err(ctx(&format!("missing numeric `{field}`")));
            }
        }
        let tid = ev.get("tid").and_then(num).unwrap_or_default() as u64;
        let stack = match open.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, stack)) => stack,
            None => {
                open.push((tid, Vec::new()));
                &mut open.last_mut().expect("just pushed").1
            }
        };
        match ph {
            "B" => {
                if cat == "phase" {
                    phase_spans += 1;
                }
                stack.push(name);
            }
            "E" => match stack.pop() {
                Some(top) if top == name => {}
                Some(top) => {
                    return Err(format!(
                        "event #{ix}: `E` for `{name}` closes open span `{top}` (tid {tid})"
                    ))
                }
                None => {
                    return Err(format!(
                        "event #{ix}: `E` for `{name}` with no open span (tid {tid})"
                    ))
                }
            },
            "i" => {
                if ev.get("s").and_then(Json::as_str).is_none() {
                    return Err(ctx("instant event missing scope `s`"));
                }
                if cat == "resolution" {
                    resolution_events += 1;
                }
                // Cache markers must sit inside the pipeline stage
                // that produced them: the dictionary inline cache
                // fires during elaboration, fusion during compile.
                if cat == "ic" {
                    if !stack.iter().any(|s| s == "elaborate") {
                        return Err(format!(
                            "event #{ix}: `ic` instant `{name}` outside an open \
                             `elaborate` span (tid {tid})"
                        ));
                    }
                    ic_events += 1;
                }
                if cat == "compile" && name == "fusion" {
                    if !stack.iter().any(|s| s == "compile") {
                        return Err(format!(
                            "event #{ix}: `fusion` instant outside an open \
                             `compile` span (tid {tid})"
                        ));
                    }
                    fusion_events += 1;
                }
            }
            other => return Err(ctx(&format!("unexpected phase `{other}`"))),
        }
    }
    for (tid, stack) in &open {
        if let Some(name) = stack.last() {
            return Err(format!(
                "span `{name}` left open at end of trace (tid {tid})"
            ));
        }
    }
    if phase_spans == 0 {
        return Err("no `phase`-category spans in trace".to_owned());
    }
    if require_resolution && resolution_events == 0 {
        return Err("no `resolution`-category events in trace".to_owned());
    }
    Ok(format!(
        "{} events, {phase_spans} phase spans, {resolution_events} resolution events, \
         {ic_events} ic events, {fusion_events} fusion events, {} threads",
        events.len(),
        open.len()
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut require_resolution = false;
    let mut files = Vec::new();
    for a in &args {
        match a.as_str() {
            "--require-resolution" => require_resolution = true,
            "--help" | "-h" => {
                eprintln!("usage: tracecheck [--require-resolution] <file.json>...");
                return ExitCode::FAILURE;
            }
            other => files.push(other.to_owned()),
        }
    }
    if files.is_empty() {
        eprintln!("usage: tracecheck [--require-resolution] <file.json>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for file in &files {
        let outcome = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|src| parse_json(&src).map_err(|e| format!("json error: {e}")))
            .and_then(|doc| validate(&doc, require_resolution));
        match outcome {
            Ok(summary) => println!("{file}: ok ({summary})"),
            Err(e) => {
                failed = true;
                println!("{file}: INVALID: {e}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Json {
        parse_json(src).expect("valid json")
    }

    #[test]
    fn validates_a_balanced_trace() {
        let doc = parse(
            r#"{"traceEvents":[
                {"name":"parse","cat":"phase","ph":"B","ts":0,"pid":1,"tid":1},
                {"name":"query_enter","cat":"resolution","ph":"i","ts":1,"pid":1,"tid":1,"s":"t"},
                {"name":"parse","cat":"phase","ph":"E","ts":2,"pid":1,"tid":1}
            ]}"#,
        );
        let summary = validate(&doc, true).expect("valid");
        assert!(summary.contains("3 events"));
    }

    #[test]
    fn rejects_unbalanced_spans() {
        let doc = parse(
            r#"{"traceEvents":[
                {"name":"parse","cat":"phase","ph":"B","ts":0,"pid":1,"tid":1}
            ]}"#,
        );
        assert!(validate(&doc, false).unwrap_err().contains("left open"));
    }

    #[test]
    fn accepts_cache_markers_inside_their_phase_spans() {
        let doc = parse(
            r#"{"traceEvents":[
                {"name":"elaborate","cat":"phase","ph":"B","ts":0,"pid":1,"tid":1},
                {"name":"ic_hit","cat":"ic","ph":"i","ts":1,"pid":1,"tid":1,"s":"t"},
                {"name":"elaborate","cat":"phase","ph":"E","ts":2,"pid":1,"tid":1},
                {"name":"compile","cat":"phase","ph":"B","ts":3,"pid":1,"tid":1},
                {"name":"fusion","cat":"compile","ph":"i","ts":4,"pid":1,"tid":1,"s":"t"},
                {"name":"compile","cat":"phase","ph":"E","ts":5,"pid":1,"tid":1}
            ]}"#,
        );
        let summary = validate(&doc, false).expect("valid");
        assert!(summary.contains("1 ic events"), "{summary}");
        assert!(summary.contains("1 fusion events"), "{summary}");
    }

    #[test]
    fn rejects_ic_marker_outside_elaborate() {
        let doc = parse(
            r#"{"traceEvents":[
                {"name":"compile","cat":"phase","ph":"B","ts":0,"pid":1,"tid":1},
                {"name":"ic_miss","cat":"ic","ph":"i","ts":1,"pid":1,"tid":1,"s":"t"},
                {"name":"compile","cat":"phase","ph":"E","ts":2,"pid":1,"tid":1}
            ]}"#,
        );
        let err = validate(&doc, false).unwrap_err();
        assert!(err.contains("outside an open `elaborate` span"), "{err}");
    }

    #[test]
    fn rejects_fusion_marker_outside_compile() {
        let doc = parse(
            r#"{"traceEvents":[
                {"name":"elaborate","cat":"phase","ph":"B","ts":0,"pid":1,"tid":1},
                {"name":"fusion","cat":"compile","ph":"i","ts":1,"pid":1,"tid":1,"s":"t"},
                {"name":"elaborate","cat":"phase","ph":"E","ts":2,"pid":1,"tid":1}
            ]}"#,
        );
        let err = validate(&doc, false).unwrap_err();
        assert!(err.contains("outside an open `compile` span"), "{err}");
    }

    #[test]
    fn requires_resolution_when_asked() {
        let doc = parse(
            r#"{"traceEvents":[
                {"name":"parse","cat":"phase","ph":"B","ts":0,"pid":1,"tid":1},
                {"name":"parse","cat":"phase","ph":"E","ts":1,"pid":1,"tid":1}
            ]}"#,
        );
        assert!(validate(&doc, false).is_ok());
        assert!(validate(&doc, true).is_err());
    }
}
