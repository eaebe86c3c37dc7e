//! Plain-text instance files.
//!
//! A dependency-free line format so instances can be exchanged with other
//! tools, checked into fixtures, and replayed:
//!
//! ```text
//! # comment
//! dag <vertex-count>
//! arc <tail> <head>
//! path <v0> <v1> <v2> ...
//! ```
//!
//! Arcs are created in file order (their ids are line order); `path` lines
//! route through existing arcs by vertex sequence (first matching arc per
//! hop, as in [`dagwave_paths::Dipath::from_vertices`]). A hop can only use
//! an arc from an earlier line: one defined further down fails as a missing
//! arc, on the `path` line.
//!
//! Hops never query the graph's adjacency. A [`Digraph`] builds its flat
//! adjacency on the first query after the last mutation, so a file that
//! alternates `arc` and `path` lines would rebuild it on every `path` line,
//! and parsing would go quadratic. Instead the reader keeps each instance's
//! out-arc lists beside the graph while it reads (flat arrays, insertion
//! order) and hands the resolved arcs to [`Dipath::from_arcs`], which reads
//! only arc endpoints. A loaded graph builds its adjacency on first use.
//!
//! A file may hold *several* instances back to back — each `dag` line opens
//! a new one. [`read_instance`] parses exactly one (a second `dag` line is
//! an error); [`read_instances`] streams them out of any [`std::io::BufRead`]
//! one at a time, never materializing more than the instance in flight.

use crate::Instance;
use dagwave_graph::{ArcId, Digraph, GraphError, VertexId};
use dagwave_paths::{Dipath, DipathFamily, PathError};
use std::fmt::Write as _;

/// Parse errors with line information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse the vertex count of a `dag` line (keyword already consumed).
fn parse_dag(lineno: usize, tokens: &mut std::str::SplitWhitespace) -> Result<usize, ParseError> {
    tokens
        .next()
        .ok_or_else(|| err(lineno, "missing vertex count"))?
        .parse()
        .map_err(|e| err(lineno, format!("bad vertex count: {e}")))
}

/// The instance being read: its graph, plus each vertex's out-arcs as a
/// linked list over flat arrays (insertion order), so `path` hops resolve
/// without adjacency queries on the graph still being built.
struct Builder {
    graph: Digraph,
    /// First and last out-arc of each vertex; [`NO_ARC`] when it has none.
    first_out: Vec<u32>,
    last_out: Vec<u32>,
    /// The next out-arc of the same tail, by arc id.
    next_out: Vec<u32>,
}

const NO_ARC: u32 = u32::MAX;

impl Builder {
    fn new(n: usize) -> Self {
        Builder {
            graph: Digraph::with_vertices(n),
            first_out: vec![NO_ARC; n],
            last_out: vec![NO_ARC; n],
            next_out: Vec::new(),
        }
    }

    fn add_arc(&mut self, tail: VertexId, head: VertexId) -> Result<(), GraphError> {
        let id = self.graph.try_add_arc(tail, head)?.0;
        self.next_out.push(NO_ARC);
        match self.last_out[tail.index()] {
            NO_ARC => self.first_out[tail.index()] = id,
            last => self.next_out[last as usize] = id,
        }
        self.last_out[tail.index()] = id;
        Ok(())
    }

    /// The first arc `tail → head` added so far, as
    /// [`Digraph::find_arc`] would find it.
    fn find_arc(&self, tail: VertexId, head: VertexId) -> Option<ArcId> {
        let mut a = self.first_out[tail.index()];
        while a != NO_ARC {
            if self.graph.head(ArcId(a)) == head {
                return Some(ArcId(a));
            }
            a = self.next_out[a as usize];
        }
        None
    }

    /// [`Dipath::from_vertices`] over the arcs added so far, with the same
    /// errors.
    fn dipath(&self, route: &[VertexId]) -> Result<Dipath, PathError> {
        if route.len() < 2 {
            return Err(PathError::Empty);
        }
        let arcs = route
            .windows(2)
            .map(|w| {
                self.find_arc(w[0], w[1]).ok_or(PathError::MissingArc {
                    from: w[0],
                    to: w[1],
                })
            })
            .collect::<Result<Vec<ArcId>, PathError>>()?;
        Dipath::from_arcs(&self.graph, arcs)
    }
}

/// Parse an `arc` line (keyword already consumed) into the graph.
fn parse_arc(
    b: &mut Builder,
    lineno: usize,
    tokens: &mut std::str::SplitWhitespace,
) -> Result<(), ParseError> {
    let mut parse = |what: &str| -> Result<VertexId, ParseError> {
        let idx: usize = tokens
            .next()
            .ok_or_else(|| err(lineno, format!("missing {what}")))?
            .parse()
            .map_err(|e| err(lineno, format!("bad {what}: {e}")))?;
        if idx >= b.graph.vertex_count() {
            return Err(err(lineno, format!("{what} {idx} out of range")));
        }
        Ok(VertexId::from_index(idx))
    };
    let tail = parse("tail")?;
    let head = parse("head")?;
    b.add_arc(tail, head)
        .map_err(|e| err(lineno, e.to_string()))
}

/// Parse a `path` line (keyword already consumed) into the family.
fn parse_path(
    b: &Builder,
    family: &mut DipathFamily,
    lineno: usize,
    tokens: &mut std::str::SplitWhitespace,
) -> Result<(), ParseError> {
    let route: Result<Vec<VertexId>, ParseError> = tokens
        .map(|t| {
            let idx: usize = t
                .parse()
                .map_err(|e| err(lineno, format!("bad vertex: {e}")))?;
            if idx >= b.graph.vertex_count() {
                return Err(err(lineno, format!("vertex {idx} out of range")));
            }
            Ok(VertexId::from_index(idx))
        })
        .collect();
    let route = route?;
    let p = b.dipath(&route).map_err(|e| err(lineno, e.to_string()))?;
    family.push(p);
    Ok(())
}

/// Serialize an instance to the text format.
pub fn write_instance(inst: &Instance) -> String {
    let mut out = String::new();
    writeln!(out, "# dagwave instance: {}", inst.name).unwrap(); // lint: allow(no-panic): writing to a String cannot fail
    writeln!(out, "dag {}", inst.graph.vertex_count()).unwrap(); // lint: allow(no-panic): writing to a String cannot fail
    for (_, arc) in inst.graph.arcs() {
        // lint: allow(no-panic): writing to a String cannot fail
        writeln!(out, "arc {} {}", arc.tail.index(), arc.head.index()).unwrap();
    }
    for (_, p) in inst.family.iter() {
        let verts: Vec<String> = p
            .vertices(&inst.graph)
            .iter()
            .map(|v| v.index().to_string())
            .collect();
        writeln!(out, "path {}", verts.join(" ")).unwrap(); // lint: allow(no-panic): writing to a String cannot fail
    }
    out
}

/// Parse an instance from the text format.
pub fn read_instance(text: &str, name: &str) -> Result<Instance, ParseError> {
    let mut builder: Option<Builder> = None;
    let mut family = DipathFamily::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().expect("non-empty line"); // lint: allow(no-panic): the blank-line guard above leaves at least one token
        match keyword {
            "dag" => {
                if builder.is_some() {
                    return Err(err(lineno, "duplicate `dag` line"));
                }
                builder = Some(Builder::new(parse_dag(lineno, &mut tokens)?));
            }
            "arc" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(lineno, "`arc` before `dag`"))?;
                parse_arc(b, lineno, &mut tokens)?;
            }
            "path" => {
                let b = builder
                    .as_ref()
                    .ok_or_else(|| err(lineno, "`path` before `dag`"))?;
                parse_path(b, &mut family, lineno, &mut tokens)?;
            }
            other => return Err(err(lineno, format!("unknown keyword `{other}`"))),
        }
    }
    let builder = builder.ok_or_else(|| err(1, "missing `dag` line"))?;
    Ok(Instance {
        graph: builder.graph,
        family,
        name: name.to_owned(),
    })
}

/// Serialize several instances into one multi-instance stream — the
/// concatenation of [`write_instance`] texts, which is exactly what
/// [`read_instances`] parses back (each `dag` line opens a new instance,
/// each `# dagwave instance:` comment names the one that follows).
pub fn write_instances(insts: &[Instance]) -> String {
    insts.iter().map(write_instance).collect()
}

/// Stream instances out of a multi-instance text without materializing the
/// whole input: one instance is held in memory at a time, lines are pulled
/// from the reader on demand. Every `dag` line starts a new instance; a
/// preceding `# dagwave instance: <name>` comment names it (else
/// `stream[<index>]`). Feed the iterator straight into
/// [`dagwave_core::SolveSession::solve_stream`] to solve a file of
/// instances at O(largest instance) memory.
pub fn read_instances<R: std::io::BufRead>(reader: R) -> InstanceStream<R> {
    InstanceStream {
        reader,
        lineno: 0,
        index: 0,
        pending_name: None,
        pending_dag: None,
        done: false,
    }
}

/// Iterator over the instances of a multi-instance stream — see
/// [`read_instances`]. Fused: after the first error (or end of input) it
/// yields `None` forever.
#[derive(Debug)]
pub struct InstanceStream<R> {
    reader: R,
    /// 1-based number of the last line read.
    lineno: usize,
    /// 0-based index of the next instance to yield (for default names).
    index: usize,
    /// Name from the most recent `# dagwave instance:` comment, waiting for
    /// its `dag` line.
    pending_name: Option<String>,
    /// Vertex count and name of the instance whose `dag` line has been read
    /// but whose body has not — the boundary line of the next iteration.
    pending_dag: Option<(usize, String)>,
    done: bool,
}

impl<R: std::io::BufRead> InstanceStream<R> {
    /// Pull one line; `None` at end of input, `Err` on an io failure
    /// (surfaced as a [`ParseError`] at the failing line).
    fn next_line(&mut self) -> Option<Result<String, ParseError>> {
        let mut buf = String::new();
        self.lineno += 1;
        match self.reader.read_line(&mut buf) {
            Ok(0) => None,
            Ok(_) => Some(Ok(buf)),
            Err(e) => Some(Err(err(self.lineno, format!("read failed: {e}")))),
        }
    }

    /// Consume a comment/blank line's bookkeeping: a `# dagwave instance:`
    /// directive stashes the name for the next `dag` line.
    fn note_comment(&mut self, line: &str) {
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(name) = rest.trim().strip_prefix("dagwave instance:") {
                self.pending_name = Some(name.trim().to_owned());
            }
        }
    }

    /// The name for the instance opening now: the stashed directive if one
    /// preceded its `dag` line, else a positional default.
    fn take_name(&mut self) -> String {
        let name = self
            .pending_name
            .take()
            .unwrap_or_else(|| format!("stream[{}]", self.index));
        self.index += 1;
        name
    }
}

impl<R: std::io::BufRead> Iterator for InstanceStream<R> {
    type Item = Result<Instance, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        // Opening boundary: either the previous iteration already read this
        // instance's `dag` line, or we scan forward to the first one.
        let (n, name) = match self.pending_dag.take() {
            Some(boundary) => boundary,
            None => loop {
                let raw = match self.next_line() {
                    None => {
                        // Clean end of input before any instance opened.
                        self.done = true;
                        return None;
                    }
                    Some(Ok(raw)) => raw,
                    Some(Err(e)) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                };
                let line = raw.trim();
                if line.is_empty() || line.starts_with('#') {
                    self.note_comment(line);
                    continue;
                }
                let mut tokens = line.split_whitespace();
                let keyword = tokens.next().expect("non-empty line"); // lint: allow(no-panic): the blank-line guard above leaves at least one token
                if keyword != "dag" {
                    self.done = true;
                    return Some(Err(err(self.lineno, format!("`{keyword}` before `dag`"))));
                }
                match parse_dag(self.lineno, &mut tokens) {
                    Ok(n) => break (n, self.take_name()),
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            },
        };
        // Body: arcs and paths until the next `dag` line or end of input.
        let mut builder = Builder::new(n);
        let mut family = DipathFamily::new();
        loop {
            let raw = match self.next_line() {
                None => {
                    self.done = true;
                    break;
                }
                Some(Ok(raw)) => raw,
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                self.note_comment(line);
                continue;
            }
            let mut tokens = line.split_whitespace();
            let keyword = tokens.next().expect("non-empty line"); // lint: allow(no-panic): the blank-line guard above leaves at least one token
            let step = match keyword {
                "dag" => match parse_dag(self.lineno, &mut tokens) {
                    Ok(next_n) => {
                        // Boundary of the next instance — park it and yield.
                        let next_name = self.take_name();
                        self.pending_dag = Some((next_n, next_name));
                        break;
                    }
                    Err(e) => Err(e),
                },
                "arc" => parse_arc(&mut builder, self.lineno, &mut tokens),
                "path" => parse_path(&builder, &mut family, self.lineno, &mut tokens),
                other => Err(err(self.lineno, format!("unknown keyword `{other}`"))),
            };
            if let Err(e) = step {
                self.done = true;
                return Some(Err(e));
            }
        }
        Some(Ok(Instance {
            graph: builder.graph,
            family,
            name,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_figure3() {
        let inst = crate::figures::figure3();
        let text = write_instance(&inst);
        let back = read_instance(&text, "fig3").unwrap();
        assert_eq!(back.graph.vertex_count(), inst.graph.vertex_count());
        assert_eq!(back.graph.arc_count(), inst.graph.arc_count());
        assert_eq!(back.family.len(), inst.family.len());
        assert_eq!(back.load(), inst.load());
        // Solving the roundtripped instance gives the same answer.
        let sol = dagwave_core::SolveSession::auto()
            .solve(&back.graph, &back.family)
            .unwrap();
        assert_eq!(sol.num_colors, 3);
    }

    #[test]
    fn roundtrip_havet() {
        let inst = crate::havet::havet(2);
        let text = write_instance(&inst);
        let back = read_instance(&text, "havet2").unwrap();
        assert_eq!(back.family.len(), 16);
        assert_eq!(back.load(), 4);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hello\n\ndag 2\n# mid\narc 0 1\npath 0 1\n";
        let inst = read_instance(text, "t").unwrap();
        assert_eq!(inst.graph.arc_count(), 1);
        assert_eq!(inst.family.len(), 1);
    }

    #[test]
    fn error_reporting() {
        assert!(read_instance("", "t").is_err());
        let e = read_instance("arc 0 1\n", "t").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("before `dag`"));
        let e = read_instance("dag 2\narc 0 5\n", "t").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("out of range"));
        let e = read_instance("dag 2\nfrob 1\n", "t").unwrap_err();
        assert!(e.message.contains("unknown keyword"));
        let e = read_instance("dag 2\narc 0 1\npath 1 0\n", "t").unwrap_err();
        assert_eq!(e.line, 3, "missing arc on the route");
    }

    #[test]
    fn duplicate_dag_rejected() {
        let e = read_instance("dag 2\ndag 3\n", "t").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn stream_parity_with_eager_reader() {
        // A concatenated multi-instance text must stream back the same
        // instances the eager reader produces one by one.
        let insts = vec![
            crate::figures::figure3(),
            crate::havet::havet(2),
            crate::figures::figure3(),
        ];
        let text = write_instances(&insts);
        let streamed: Vec<Instance> = read_instances(text.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed.len(), insts.len());
        for (got, want) in streamed.iter().zip(&insts) {
            assert_eq!(got.name, want.name, "name directive preserved");
            let eager = read_instance(&write_instance(want), &want.name).unwrap();
            assert_eq!(got.graph.vertex_count(), eager.graph.vertex_count());
            assert_eq!(got.graph.arc_count(), eager.graph.arc_count());
            assert_eq!(got.family.len(), eager.family.len());
            for ((_, a), (_, b)) in got.family.iter().zip(eager.family.iter()) {
                assert_eq!(a.arcs(), b.arcs());
            }
        }
    }

    #[test]
    fn stream_default_names_and_empty_input() {
        assert_eq!(read_instances("".as_bytes()).count(), 0);
        assert_eq!(read_instances("# only comments\n".as_bytes()).count(), 0);
        let text = "dag 2\narc 0 1\npath 0 1\ndag 3\narc 0 1\narc 1 2\n";
        let got: Vec<Instance> = read_instances(text.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "stream[0]");
        assert_eq!(got[1].name, "stream[1]");
        assert_eq!(got[0].family.len(), 1);
        assert_eq!(got[1].graph.arc_count(), 2);
        assert_eq!(got[1].family.len(), 0);
    }

    #[test]
    fn stream_errors_fuse_with_line_numbers() {
        // `arc` before any `dag` fails at its line, then the stream fuses.
        let mut s = read_instances("# c\narc 0 1\n".as_bytes());
        let e = s.next().unwrap().unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("before `dag`"));
        assert!(s.next().is_none());
        // A body error in the second instance still yields the first.
        let mut s = read_instances("dag 2\narc 0 1\ndag 2\narc 0 5\n".as_bytes());
        assert!(s.next().unwrap().is_ok());
        let e = s.next().unwrap().unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("out of range"));
        assert!(s.next().is_none());
    }

    #[test]
    fn stream_feeds_solve_stream() {
        // The streaming loader plugs straight into the batch/stream solver
        // and gives the same answers as eagerly loaded instances.
        let insts = vec![crate::figures::figure3(), crate::havet::havet(2)];
        let text = write_instances(&insts);
        let session = dagwave_core::SolveSession::auto();
        let streamed: Vec<_> = session
            .solve_stream(
                read_instances(text.as_bytes())
                    .map(|r| r.unwrap())
                    .map(|inst| dagwave_core::Instance::new(inst.graph, inst.family)),
            )
            .collect();
        let eager: Vec<_> = insts
            .iter()
            .map(|inst| session.solve(&inst.graph, &inst.family))
            .collect();
        assert_eq!(streamed.len(), eager.len());
        for (s, e) in streamed.iter().zip(&eager) {
            let (s, e) = (s.as_ref().unwrap(), e.as_ref().unwrap());
            assert_eq!(s.num_colors, e.num_colors);
            assert_eq!(s.assignment.colors(), e.assignment.colors());
        }
    }

    /// A chain `0 → 1 → … → m` with a parallel copy of every arc, and one
    /// `path` over the last one to three hops after each new hop, each of
    /// its lines either right behind its arcs (`interleaved`) or after
    /// every arc. Both layouts hold the same lines, so they describe one
    /// instance and number their lines alike from the end.
    fn chain_text(m: usize, interleaved: bool, tail: &str) -> String {
        let (mut arcs, mut paths) = (String::new(), String::new());
        for i in 0..m {
            for _ in 0..2 {
                writeln!(arcs, "arc {i} {}", i + 1).unwrap();
            }
            let route: Vec<String> = (i.saturating_sub(i % 3)..=i + 1)
                .map(|v| v.to_string())
                .collect();
            writeln!(paths, "path {}", route.join(" ")).unwrap();
            if interleaved {
                arcs.push_str(&paths);
                paths.clear();
            }
        }
        format!("dag {}\n{arcs}{paths}{tail}", m + 1)
    }

    /// Parsing must stay linear when `arc` and `path` lines alternate. The
    /// two layouts of a 2,000-hop chain load to the same instance and fail
    /// alike; at 20,000 hops the interleaved one parses within 4× the
    /// grouped one (fastest of 3 runs each). A per-line adjacency rebuild
    /// would make it quadratic.
    #[test]
    fn interleaved_and_grouped_files_load_alike() {
        let m = 2_000;
        let (inter, grouped) = (chain_text(m, true, ""), chain_text(m, false, ""));
        let a = read_instance(&inter, "a").unwrap();
        let b = read_instance(&grouped, "b").unwrap();
        assert_eq!(a.graph.vertex_count(), b.graph.vertex_count());
        assert!(a.graph.arcs().eq(b.graph.arcs()));
        assert_eq!(a.family.len(), m);
        assert!(a
            .family
            .iter()
            .map(|(_, p)| p.arcs())
            .eq(b.family.iter().map(|(_, p)| p.arcs())));
        // Each hop takes the first of its parallel arcs, as
        // `Dipath::from_vertices` does on the loaded graph.
        for (_, p) in a.family.iter() {
            let again = Dipath::from_vertices(&a.graph, &p.vertices(&a.graph)).unwrap();
            assert_eq!(again.arcs(), p.arcs());
        }
        // The streaming reader loads the same instance.
        let streamed = read_instances(inter.as_bytes()).next().unwrap().unwrap();
        assert!(streamed.graph.arcs().eq(a.graph.arcs()));
        assert!(streamed
            .family
            .iter()
            .map(|(_, p)| p.arcs())
            .eq(a.family.iter().map(|(_, p)| p.arcs())));
        // A bad last line fails identically in both layouts and readers.
        let last = 1 + 3 * m + 1;
        for bad in [
            "path 5 3",
            "path 0 1 0",
            "path 0 99999999",
            "path 7",
            "arc 2 2",
        ] {
            let errors: Vec<ParseError> = [true, false]
                .into_iter()
                .flat_map(|layout| {
                    let text = chain_text(m, layout, &format!("{bad}\n"));
                    let streamed = read_instances(text.as_bytes()).next().unwrap();
                    [
                        read_instance(&text, "t").unwrap_err(),
                        streamed.unwrap_err(),
                    ]
                })
                .collect();
            assert_eq!(errors[0].line, last, "{bad}: {}", errors[0]);
            assert!(errors.iter().all(|e| *e == errors[0]), "{bad}: {errors:?}");
        }
        let fastest = |text: &str| {
            (0..3)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    std::hint::black_box(read_instance(text, "t").unwrap());
                    t0.elapsed()
                })
                .min()
                .unwrap()
        };
        let m = 20_000;
        let (ti, tg) = (
            fastest(&chain_text(m, true, "")),
            fastest(&chain_text(m, false, "")),
        );
        assert!(ti <= tg * 4, "interleaved {ti:?} vs grouped {tg:?}");
    }

    /// A hop can only use an arc from an earlier line.
    #[test]
    fn forward_arc_reference_is_a_missing_arc() {
        let text = "dag 3\narc 0 1\npath 0 1 2\narc 1 2\n";
        let e = read_instance(text, "t").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("no arc v1 → v2"), "{e}");
        let streamed = read_instances(text.as_bytes()).next().unwrap();
        assert_eq!(streamed.unwrap_err(), e);
    }

    #[test]
    fn self_loop_rejected_via_graph_error() {
        let e = read_instance("dag 2\narc 1 1\n", "t").unwrap_err();
        assert!(e.message.contains("self-loop"));
    }
}
