//! In-memory span ledger of the traced run, and the per-layer tables
//! built from it.
//!
//! The benchmark records a span around every public call it makes (parse,
//! build, compile, the three verifier passes, each solve) and nests the
//! spans `Solver::solve_traced` records under its own `solve` span. Two
//! clocks never mix: host spans are wall seconds; spans on a simulated
//! device track are simulated-device seconds, kept out of every wall sum.
//!
//! Self time is attributed by an innermost-span sweep: every instant of a
//! root span (a solve, a set-up) belongs to the most recently opened host
//! span of rank 0 covering it, or to the root itself when none does. The
//! self times of one root therefore add up to its wall time exactly.

use pbte_runtime::telemetry::{Span as RecSpan, Track};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock seconds.
    Wall,
    /// Simulated-device seconds (the roofline model's clock).
    SimDev,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// `bench` for the benchmark's own spans, else the recorder category.
    pub cat: String,
    pub parent: Option<usize>,
    /// Seconds from the ledger epoch (wall spans) or from the root's start
    /// on the device clock (simulated-device spans).
    pub t0: f64,
    pub dur: f64,
    pub rank: u32,
    pub clock: Clock,
    /// Innermost-attributed self time; set for rank-0 wall spans under a
    /// root passed to [`Ledger::attribute`].
    pub self_s: Option<f64>,
}

impl Span {
    fn t1(&self) -> f64 {
        self.t0 + self.dur
    }

    /// Row key in the self-time table.
    fn key(&self) -> String {
        format!("{}:{}", self.cat, self.name)
    }
}

pub struct Ledger {
    epoch: Instant,
    pub run_id: String,
    pub spans: Vec<Span>,
}

impl Ledger {
    pub fn new(run_id: String) -> Ledger {
        Ledger {
            epoch: Instant::now(),
            run_id,
            spans: Vec::new(),
        }
    }

    /// Seconds of `at` from the ledger epoch.
    pub fn at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Record a closed benchmark span; returns its id.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let t0 = self.at(start);
        self.spans.push(Span {
            name: name.to_string(),
            cat: "bench".into(),
            parent,
            t0,
            dur: self.at(end) - t0,
            rank: 0,
            clock: Clock::Wall,
            self_s: None,
        });
        self.spans.len() - 1
    }

    /// Nest the spans a recorder collected under `root`. `rec_epoch` is
    /// when the recorder was created (its span times count from there).
    /// Host spans nest by containment per rank; device spans keep their
    /// simulated clock, offset to start at the root.
    pub fn import(&mut self, root: usize, rec_epoch: Instant, spans: &[RecSpan]) {
        let base = self.at(rec_epoch);
        let root_t0 = self.spans[root].t0;
        let mut order: Vec<&RecSpan> = spans.iter().collect();
        order.sort_by(|a, b| {
            (a.rank, a.track == Track::Host)
                .cmp(&(b.rank, b.track == Track::Host))
                .then(a.t0.total_cmp(&b.t0))
                .then(b.dur.total_cmp(&a.dur))
        });
        // Open host spans of the current rank, outermost first.
        let mut stack: Vec<usize> = Vec::new();
        let mut rank = None;
        for s in order {
            let (clock, t0) = match s.track {
                Track::Host => (Clock::Wall, base + s.t0),
                Track::Device(_) => (Clock::SimDev, root_t0 + s.t0),
            };
            if rank != Some(s.rank) {
                stack.clear();
                rank = Some(s.rank);
            }
            let mut parent = root;
            if clock == Clock::Wall {
                while let Some(&top) = stack.last() {
                    if self.spans[top].t1() >= t0 + s.dur {
                        break;
                    }
                    stack.pop();
                }
                parent = stack.last().copied().unwrap_or(root);
            }
            self.spans.push(Span {
                name: s.name.clone(),
                cat: s.kind.category().to_string(),
                parent: Some(parent),
                t0,
                dur: s.dur,
                rank: s.rank,
                clock,
                self_s: None,
            });
            if clock == Clock::Wall {
                stack.push(self.spans.len() - 1);
            }
        }
    }

    /// Attribute `root`'s wall time to the innermost rank-0 host span
    /// below it at every instant; sets `self_s` on each of them.
    pub fn attribute(&mut self, root: usize) {
        let members: Vec<usize> = (root + 1..self.spans.len())
            .filter(|&i| {
                let s = &self.spans[i];
                s.clock == Clock::Wall && s.rank == 0 && self.descends(i, root)
            })
            .collect();
        let (r0, r1) = (self.spans[root].t0, self.spans[root].t1());
        let clip = |t: f64| t.clamp(r0, r1);
        let mut cuts: Vec<f64> = vec![r0, r1];
        for &i in &members {
            cuts.push(clip(self.spans[i].t0));
            cuts.push(clip(self.spans[i].t1()));
        }
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        let mut self_s: BTreeMap<usize, f64> = BTreeMap::new();
        self_s.insert(root, 0.0);
        for &i in &members {
            self_s.insert(i, 0.0);
        }
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            let owner = members
                .iter()
                .copied()
                .filter(|&i| clip(self.spans[i].t0) <= a && clip(self.spans[i].t1()) >= b)
                .max_by(|&i, &j| {
                    let (si, sj) = (&self.spans[i], &self.spans[j]);
                    si.t0
                        .total_cmp(&sj.t0)
                        .then(sj.t1().total_cmp(&si.t1()))
                        .then(i.cmp(&j))
                })
                .unwrap_or(root);
            *self_s.get_mut(&owner).expect("owner is a member") += b - a;
        }
        for (i, s) in self_s {
            self.spans[i].self_s = Some(s);
        }
    }

    fn descends(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Self seconds per row key over the attributed spans under roots
    /// named `root_name`; the roots' own self time is the residual row.
    pub fn self_table(&self, root_name: &str, residual: &str) -> (Vec<(String, f64)>, f64) {
        let mut rows: BTreeMap<String, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            let Some(secs) = s.self_s else { continue };
            let Some(root) = self.root_of(i) else {
                continue;
            };
            if self.spans[root].name != root_name || self.spans[root].cat != "bench" {
                continue;
            }
            let key = if i == root {
                residual.to_string()
            } else {
                s.key()
            };
            *rows.entry(key).or_insert(0.0) += secs;
            if i == root {
                total += s.dur;
            }
        }
        let mut rows: Vec<(String, f64)> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        (rows, total)
    }

    /// The outermost benchmark span above `i` that was attributed (or `i`
    /// itself when it is one).
    fn root_of(&self, mut i: usize) -> Option<usize> {
        let mut found = None;
        loop {
            let s = &self.spans[i];
            if s.cat == "bench" && s.self_s.is_some() {
                found = Some(i);
            }
            match s.parent {
                Some(p) => i = p,
                None => return found,
            }
        }
    }

    /// Chrome trace-event JSON (loadable in Perfetto). Host spans sit on
    /// thread 0 of their rank, simulated-device spans on thread 1.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match s.clock {
                Clock::Wall => 0,
                Clock::SimDev => 1,
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_s = s.self_s.map_or("null".to_string(), json_num);
            let clock = match s.clock {
                Clock::Wall => "wall_s",
                Clock::SimDev => "simdev_s",
            };
            let _ = write!(
                out,
                "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{tid},\
                 \"args\":{{\"run_id\":{},\"id\":{i},\"parent\":{parent},\"clock\":\"{clock}\",\"self_s\":{self_s}}}}}",
                if i == 0 { "" } else { ",\n" },
                json_str(&s.name),
                json_str(&s.cat),
                json_num(s.t0 * 1e6),
                json_num(s.dur * 1e6),
                s.rank,
                json_str(&self.run_id),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A JSON number; non-finite values (which no metric should produce)
/// become `null` so the document stays valid.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbte_runtime::telemetry::SpanKind;
    use std::time::Duration;

    fn rec_span(name: &str, t0: f64, dur: f64, track: Track) -> RecSpan {
        RecSpan {
            kind: SpanKind::Phase,
            name: name.into(),
            t0,
            dur,
            rank: 0,
            track,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_times_add_up_to_the_root_and_skip_device_spans() {
        let mut l = Ledger::new("t".into());
        let start = l.epoch;
        let root = l.push("solve", None, start, start + Duration::from_millis(10));
        l.import(
            root,
            start,
            &[
                rec_span("step", 0.001, 0.006, Track::Host),
                rec_span("inner", 0.002, 0.002, Track::Host),
                rec_span("kernel", 0.0, 5.0, Track::Device(0)),
            ],
        );
        l.attribute(root);
        let (rows, total) = l.self_table("solve", "unattributed");
        let get = |k: &str| rows.iter().find(|r| r.0 == k).map(|r| r.1).unwrap();
        assert!((total - 0.010).abs() < 1e-9);
        assert!((get("phase:step") - 0.004).abs() < 1e-9);
        assert!((get("phase:inner") - 0.002).abs() < 1e-9);
        assert!((get("unattributed") - 0.004).abs() < 1e-9);
        assert!((rows.iter().map(|r| r.1).sum::<f64>() - total).abs() < 1e-12);
        assert!(rows.iter().all(|r| r.0 != "phase:kernel"));
        // Nesting by containment: `inner` hangs under `step`.
        let inner = l.spans.iter().position(|s| s.name == "inner").unwrap();
        assert_eq!(l.spans[l.spans[inner].parent.unwrap()].name, "step");
    }
}
