//! Spans taken from outside the program: the benchmark brackets its own
//! calls into each layer. Kept in memory, written out when the traced
//! run ends.

use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes [`Recorder::spans`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// The request new spans belong to, and how many there have been.
    request: u32,
    requests: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            requests: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next request; spans entered from here on carry its id.
    pub fn next_request(&mut self) -> u32 {
        self.requests += 1;
        self.request = self.requests;
        self.request
    }

    /// Goes back to an earlier request; spans entered from here on carry
    /// its id.
    pub fn resume_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.nanos() as f64 / 1e3).collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("request", Json::Num(f64::from(s.request))),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of it its child
/// spans cover. Children of one parent never overlap here (one thread,
/// spans close innermost first), so covered time is their sum.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.nanos());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 1 }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = [
            span("replay", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("eval", 30, 90, Some(0)),
            span("probe", 40, 50, Some(2)),
        ];
        assert_eq!(self_nanos(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn recorder_nests_and_tags_requests() {
        let mut rec = Recorder::default();
        let request = rec.next_request();
        let outer = rec.enter("outer");
        rec.leaf("inner", || std::hint::black_box(1 + 1));
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == request));
        assert!(spans[0].nanos() >= spans[1].nanos());
        assert_eq!(rec.micros("inner").len(), 1);

        // A later span can rejoin an earlier request without the next
        // request reusing an id.
        let second = rec.next_request();
        rec.resume_request(request);
        rec.leaf("replay", || ());
        assert_eq!(rec.spans()[2].request, request);
        assert!(rec.next_request() > second);
    }
}
