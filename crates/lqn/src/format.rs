//! Serialisation of LQN models to and from the classic LQNS input format.
//!
//! The textual format follows the layered-queueing tool family
//! (`lqns`/`lqsim`) input syntax closely enough for interchange and code
//! review, covering the subset this crate models:
//!
//! ```text
//! G "comment" 1e-06 100 $
//! P 0
//!   p server-1 m 4 s 1.2
//! -1
//! T 0
//!   t front-end r 1 m 1024 c 0.2 x 1 p server-1
//!   t users ref n 500 z 7 p users-proc
//! -1
//! E 0
//!   e home t front-end d 0.0027 l 0.75
//! -1
//! C 0
//!   c users-begin home 0.63
//! -1
//! ```
//!
//! Sections: `P` processors, `T` tasks, `E` entries, `C` calls; each ends
//! with `-1`. Task flags: `ref` (reference task with `n` population and
//! `z` think time), `r` replicas, `m` multiplicity, `c` CPU share,
//! `x` parallelism, `p` host processor. The format round-trips through
//! [`to_lqn_text`] / [`from_lqn_text`] exactly (up to float printing).

use std::collections::HashMap;

use crate::error::LqnError;
use crate::model::{LqnModel, TaskKind};

/// Serialises a model to the textual format.
pub fn to_lqn_text(model: &LqnModel) -> String {
    let mut out = String::new();
    out.push_str("G \"atom-lqn model\" 1e-06 100 $\n");
    out.push_str("P 0\n");
    // The reference task's implicit processor is recreated on parse.
    let implicit: Vec<usize> = model
        .tasks()
        .iter()
        .filter(|t| t.is_reference())
        .map(|t| t.processor.0)
        .collect();
    for (pi, p) in model.processors().iter().enumerate() {
        if implicit.contains(&pi) {
            continue;
        }
        out.push_str(&format!("  p {} m {} s {}\n", p.name, p.cores, p.speed));
    }
    out.push_str("-1\nT 0\n");
    for t in model.tasks() {
        match t.kind {
            TaskKind::Reference { think_time } => {
                out.push_str(&format!(
                    "  t {} ref n {} z {} p {}\n",
                    t.name,
                    t.multiplicity,
                    think_time,
                    model.processor(t.processor).name
                ));
            }
            TaskKind::Server => {
                out.push_str(&format!(
                    "  t {} r {} m {}",
                    t.name, t.replicas, t.multiplicity
                ));
                if let Some(s) = t.cpu_share {
                    out.push_str(&format!(" c {s}"));
                }
                if let Some(x) = t.parallelism {
                    out.push_str(&format!(" x {x}"));
                }
                out.push_str(&format!(" p {}\n", model.processor(t.processor).name));
            }
        }
    }
    out.push_str("-1\nE 0\n");
    for e in model.entries() {
        // Reference-task entries are implicit (created with the task).
        if model.task(e.task).is_reference() {
            continue;
        }
        out.push_str(&format!(
            "  e {} t {} d {}",
            e.name,
            model.task(e.task).name,
            e.demand
        ));
        if e.latency > 0.0 {
            out.push_str(&format!(" l {}", e.latency));
        }
        out.push('\n');
    }
    out.push_str("-1\nC 0\n");
    // Canonical order (by caller/callee name) so that write∘parse is a
    // fixed point regardless of entry-id ordering.
    let mut calls: Vec<(String, String, f64)> = Vec::new();
    for e in model.entries() {
        for c in &e.calls {
            calls.push((e.name.clone(), model.entry(c.target).name.clone(), c.mean));
        }
    }
    calls.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    for (from, to, mean) in calls {
        out.push_str(&format!("  c {from} {to} {mean}\n"));
    }
    out.push_str("-1\n");
    out
}

/// Parses a model from the textual format.
///
/// # Errors
///
/// Returns [`LqnError::InvalidModel`] on syntax errors, unknown names,
/// or duplicate definitions; the message carries the offending line.
pub fn from_lqn_text(text: &str) -> Result<LqnModel, LqnError> {
    let mut model = LqnModel::new();
    let mut processors = HashMap::new();
    let mut tasks = HashMap::new();
    let mut entries = HashMap::new();
    // Deferred reference-task client entries: name -> entry id.
    #[derive(PartialEq)]
    enum Section {
        None,
        Processors,
        Tasks,
        Entries,
        Calls,
    }
    let mut section = Section::None;

    let bad = |line: &str, why: &str| LqnError::InvalidModel {
        reason: format!("{why}: `{line}`"),
    };

    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('G') || line.starts_with('#') {
            continue;
        }
        if line == "-1" {
            section = Section::None;
            continue;
        }
        match line.chars().next() {
            Some('P') if line.len() <= 3 => {
                section = Section::Processors;
                continue;
            }
            Some('T') if line.len() <= 3 => {
                section = Section::Tasks;
                continue;
            }
            Some('E') if line.len() <= 3 => {
                section = Section::Entries;
                continue;
            }
            Some('C') if line.len() <= 3 => {
                section = Section::Calls;
                continue;
            }
            _ => {}
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match section {
            Section::Processors => {
                // p NAME m CORES s SPEED
                if tokens.len() != 6 || tokens[0] != "p" {
                    return Err(bad(line, "malformed processor"));
                }
                let name = tokens[1].to_string();
                let cores = (tokens[3].parse::<usize>().ok())
                    .filter(|&c| c > 0)
                    .ok_or_else(|| bad(line, "bad cores"))?;
                let speed = (tokens[5].parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(line, "bad speed"))?;
                if processors.contains_key(&name) {
                    return Err(bad(line, "duplicate processor"));
                }
                let id = model.add_processor(&name, cores, speed);
                processors.insert(name, id);
            }
            Section::Tasks => {
                if tokens.first() != Some(&"t") || tokens.len() < 4 {
                    return Err(bad(line, "malformed task"));
                }
                let name = tokens[1].to_string();
                if tasks.contains_key(&name) {
                    return Err(bad(line, "duplicate task"));
                }
                if tokens.get(2) == Some(&"ref") {
                    // t NAME ref n POP z THINK p PROC  (proc is informative)
                    let mut pop = None;
                    let mut think = None;
                    let mut i = 3;
                    while i + 1 < tokens.len() {
                        match tokens[i] {
                            "n" => pop = tokens[i + 1].parse::<usize>().ok(),
                            "z" => think = tokens[i + 1].parse::<f64>().ok(),
                            "p" => {}
                            _ => return Err(bad(line, "unknown reference-task flag")),
                        }
                        i += 2;
                    }
                    let (Some(pop), Some(think)) = (pop, think) else {
                        return Err(bad(line, "reference task needs n and z"));
                    };
                    let id = model.add_reference_task(&name, pop, think)?;
                    // Register the implicit client entry under its name.
                    let ce = model.reference_entry(id)?;
                    entries.insert(model.entry(ce).name.clone(), ce);
                    tasks.insert(name, id);
                } else {
                    // t NAME r R m M [c S] [x X] p PROC
                    let mut replicas = 1usize;
                    let mut mult = 1usize;
                    let mut share = None;
                    let mut par = None;
                    let mut proc = None;
                    let mut i = 2;
                    while i + 1 < tokens.len() {
                        match tokens[i] {
                            "r" => {
                                replicas = tokens[i + 1].parse().map_err(|_| bad(line, "bad r"))?
                            }
                            "m" => mult = tokens[i + 1].parse().map_err(|_| bad(line, "bad m"))?,
                            "c" => {
                                share = Some(tokens[i + 1].parse().map_err(|_| bad(line, "bad c"))?)
                            }
                            "x" => {
                                par = Some(tokens[i + 1].parse().map_err(|_| bad(line, "bad x"))?)
                            }
                            "p" => proc = processors.get(tokens[i + 1]).copied(),
                            _ => return Err(bad(line, "unknown task flag")),
                        }
                        i += 2;
                    }
                    let proc = proc.ok_or_else(|| bad(line, "task needs a known processor"))?;
                    let id = model.add_task(&name, proc, mult, replicas)?;
                    model.set_cpu_share(id, share)?;
                    model.set_parallelism(id, par)?;
                    tasks.insert(name, id);
                }
            }
            Section::Entries => {
                // e NAME t TASK d DEMAND [l LATENCY]
                if tokens.first() != Some(&"e") || tokens.len() < 6 {
                    return Err(bad(line, "malformed entry"));
                }
                let name = tokens[1].to_string();
                if entries.contains_key(&name) {
                    return Err(bad(line, "duplicate entry"));
                }
                let task = *tasks
                    .get(tokens[3])
                    .ok_or_else(|| bad(line, "entry references unknown task"))?;
                let demand: f64 = tokens[5].parse().map_err(|_| bad(line, "bad demand"))?;
                let id = model.add_entry(&name, task, demand)?;
                if tokens.get(6) == Some(&"l") {
                    let lat: f64 = tokens
                        .get(7)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad(line, "bad latency"))?;
                    model.set_latency(id, lat)?;
                }
                entries.insert(name, id);
            }
            Section::Calls => {
                // c FROM TO MEAN
                if tokens.first() != Some(&"c") || tokens.len() != 4 {
                    return Err(bad(line, "malformed call"));
                }
                let from = *entries
                    .get(tokens[1])
                    .ok_or_else(|| bad(line, "call from unknown entry"))?;
                let to = *entries
                    .get(tokens[2])
                    .ok_or_else(|| bad(line, "call to unknown entry"))?;
                let mean: f64 = tokens[3].parse().map_err(|_| bad(line, "bad call mean"))?;
                model.add_call(from, to, mean)?;
            }
            Section::None => return Err(bad(line, "content outside a section")),
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{solve, SolverOptions};

    fn sample() -> LqnModel {
        let mut m = LqnModel::new();
        let p1 = m.add_processor("server-1", 4, 1.2);
        let p2 = m.add_processor("server-2", 4, 0.8);
        let web = m.add_task("web", p1, 1024, 2).unwrap();
        m.set_cpu_share(web, Some(0.25)).unwrap();
        m.set_parallelism(web, Some(1)).unwrap();
        let db = m.add_task("db", p2, 32, 1).unwrap();
        let page = m.add_entry("page", web, 0.0027).unwrap();
        m.set_latency(page, 0.75).unwrap();
        let query = m.add_entry("query", db, 0.0009).unwrap();
        m.add_call(page, query, 2.0).unwrap();
        let c = m.add_reference_task("users", 500, 7.0).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), page, 1.0)
            .unwrap();
        m
    }

    /// Parsing reorders ids (sections group by kind), so structural
    /// equality is checked on the *re-serialised* model: write → parse →
    /// write must be a fixed point, and the element sets must match.
    #[test]
    fn roundtrip_is_idempotent_and_complete() {
        let model = sample();
        let text = to_lqn_text(&model);
        let parsed = from_lqn_text(&text).unwrap();
        assert_eq!(
            text,
            to_lqn_text(&parsed),
            "write∘parse must be a fixed point"
        );
        assert_eq!(model.processors().len(), parsed.processors().len());
        assert_eq!(model.tasks().len(), parsed.tasks().len());
        assert_eq!(model.entries().len(), parsed.entries().len());
        for t in model.tasks() {
            let pt = parsed.task(parsed.task_by_name(&t.name).expect("task"));
            assert_eq!(t.multiplicity, pt.multiplicity, "{}", t.name);
            assert_eq!(t.replicas, pt.replicas);
            assert_eq!(t.cpu_share, pt.cpu_share);
            assert_eq!(t.parallelism, pt.parallelism);
        }
        for e in model.entries() {
            let pe = parsed.entry(parsed.entry_by_name(&e.name).expect("entry"));
            assert_eq!(e.demand, pe.demand, "{}", e.name);
            assert_eq!(e.latency, pe.latency);
            assert_eq!(e.calls.len(), pe.calls.len());
        }
    }

    #[test]
    fn roundtrip_preserves_solution() {
        let model = sample();
        let parsed = from_lqn_text(&to_lqn_text(&model)).unwrap();
        let a = solve(&model, SolverOptions::default()).unwrap();
        let b = solve(&parsed, SolverOptions::default()).unwrap();
        assert_eq!(a.client_throughput, b.client_throughput);
    }

    #[test]
    fn text_has_expected_sections() {
        let text = to_lqn_text(&sample());
        for marker in ["P 0", "T 0", "E 0", "C 0", "-1", "ref n 500 z 7"] {
            assert!(text.contains(marker), "missing `{marker}` in:\n{text}");
        }
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!(matches!(
            from_lqn_text("P 0\n  p broken\n-1\n"),
            Err(LqnError::InvalidModel { .. })
        ));
        let err = from_lqn_text("T 0\n  t orphan r 1 m 1 p nowhere\n-1\n").unwrap_err();
        assert!(err.to_string().contains("processor"), "{err}");
        let err = from_lqn_text("stray tokens").unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn duplicate_names_rejected() {
        let text = "P 0\n  p a m 1 s 1\n  p a m 1 s 1\n-1\n";
        assert!(from_lqn_text(text).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut text = to_lqn_text(&sample());
        text.insert_str(0, "# a comment\n\n");
        assert!(from_lqn_text(&text).is_ok());
    }

    #[test]
    fn sockshop_model_roundtrips() {
        // The real evaluation model exercises every feature at once.
        let mut m = LqnModel::new();
        let p = m.add_processor("p", 2, 1.0);
        let t = m.add_task("t", p, 4, 3).unwrap();
        let e1 = m.add_entry("e1", t, 0.5).unwrap();
        let e2 = m.add_entry("e2", t, 0.25).unwrap();
        m.add_call(e1, e2, 0.5).unwrap();
        let c = m.add_reference_task("c", 10, 1.0).unwrap();
        let ce = m.reference_entry(c).unwrap();
        m.add_call(ce, e1, 0.7).unwrap();
        m.add_call(ce, e2, 0.3).unwrap();
        let text = to_lqn_text(&m);
        let parsed = from_lqn_text(&text).unwrap();
        assert_eq!(text, to_lqn_text(&parsed));
        use crate::analytic::{solve, SolverOptions};
        let a = solve(&m, SolverOptions::default()).unwrap();
        let b = solve(&parsed, SolverOptions::default()).unwrap();
        assert!((a.client_throughput - b.client_throughput).abs() < 1e-9);
    }
}
