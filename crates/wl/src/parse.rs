//! Text form of the workload IR: a hand-rolled line parser with real
//! errors (line/column, offending token, "did you mean"), plus the
//! inverse printer [`to_text`].
//!
//! Grammar (one statement per line, `#` starts a comment):
//!
//! ```text
//! workload <name>
//! procs <N>
//! preset <name>                                # optional, advisory
//!
//! <label>: send <src> -> <dst> [tag=N] [data=N | words=N] [after: a, b]
//! <label>: recv <src> -> <dst> [tag=N]         [after: a, b]
//! <label>: compute <cycles> @<proc>            [after: a, b]
//! <label>: timer <cycles> @<proc>              [after: a, b]
//! <label>: barrier @<proc>                     [after: a, b]
//! ```
//!
//! Labels are identifiers (`[A-Za-z_][A-Za-z0-9_]*`) and may be
//! referenced in `after:` before they are defined. [`parse_workload`]
//! checks syntax only; [`load_workload`] also runs
//! [`Workload::validate`] so the result is ready to interpret.

use crate::ir::{bail, NodeId, Nodes, Op, Payload, Span, WlError, Workload};
use crate::lower::{Keyed, Labels, MAX_BLOCK_WORDS, MAX_PROCS};
use logp_core::ProcId;
use std::collections::hash_map::Entry;

const OPS: [&str; 5] = ["send", "recv", "compute", "barrier", "timer"];
const DIRECTIVES: [&str; 3] = ["workload", "procs", "preset"];

/// Parse the text form, resolving labels. Syntax errors only — run
/// [`load_workload`] to also validate the DAG.
pub fn parse_workload(text: &str) -> Result<Workload, WlError> {
    // Every label byte and every dependency takes a byte of text, so this
    // one bound also keeps the arena's 32-bit offsets from overflowing.
    if u32::try_from(text.len()).is_err() {
        bail!(
            Span::new(1, 1),
            "program text is {} bytes; positions in it are 32 bits (under 4 GiB)",
            text.len()
        );
    }
    // Sized for ~32-byte statements, so a typical file never regrows its
    // tables; both grow on demand past that.
    let guess = (text.len() / 32).min(1 << 20);
    let mut p = Parser {
        text,
        lineno: 1,
        nodes: Nodes::with_capacity(guess),
        labels: Labels::with_capacity_and_hasher(guess, Keyed::default()),
        ..Parser::default()
    };
    while p.at < text.len() {
        let parsed = p.statement();
        // A stray character anywhere on the line outranks whatever the
        // statement tripped over first.
        p.end_line()?;
        parsed?;
    }
    p.finish()
}

/// Parse and validate: the returned workload is accepted by
/// [`Workload::validate`] and ready for the interpreter.
pub fn load_workload(text: &str) -> Result<Workload, WlError> {
    let wl = parse_workload(text)?;
    wl.validate()?;
    Ok(wl)
}

/// A token with its 1-based source position.
#[derive(Clone, Copy)]
struct Tok<'a> {
    s: &'a str,
    span: Span,
}

/// The loader: one pass over the text, a token at a time, a line at a
/// time. Tokens go straight into the node arena; labels are interned as
/// they are defined, so an `after:` entry naming an earlier node resolves
/// on the spot.
#[derive(Default)]
struct Parser<'a> {
    text: &'a str,
    /// Read position, and where the current line started.
    at: usize,
    line_start: usize,
    lineno: u32,
    /// Offset of the first character of this line that no token can
    /// hold; the line ends there as far as `next` is concerned.
    stray: Option<usize>,
    name: Option<&'a str>,
    procs: Option<u32>,
    preset: Option<&'a str>,
    nodes: Nodes,
    labels: Labels<'a>,
    /// The first redefined label: `(redefinition, first definition)`.
    /// Reported after the pass, since any syntax error outranks it.
    duplicate: Option<(NodeId, NodeId)>,
    /// `after:` entries naming a label not defined yet, patched (or
    /// rejected) at the end: `(node, position in its deps, label)`.
    forward: Vec<(NodeId, u32, &'a str)>,
}

/// Levenshtein distance, for "did you mean" suggestions.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// `e`, with `hint(m)` as help when a candidate `m` is within edit
/// distance 2 of `s`: the closest one, and among equally close ones the
/// earliest.
fn suggest<'c>(
    e: WlError,
    s: &str,
    candidates: impl IntoIterator<Item = &'c str>,
    hint: impl Fn(&str) -> String,
) -> WlError {
    let close = candidates
        .into_iter()
        .map(|c| (levenshtein(s, c), c))
        .filter(|&(d, c)| d <= 2 && d < c.len())
        .min_by_key(|&(d, _)| d);
    match close {
        Some((_, m)) => e.with_help(hint(m)),
        None => e,
    }
}

const AFTER_HINT: &str = "did you mean `after:` (with the colon)?";

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_num(t: Tok<'_>, what: impl std::fmt::Display) -> Result<u64, WlError> {
    match t.s.parse::<u64>() {
        Ok(v) => Ok(v),
        Err(_) => bail!(t.span, "expected {what} (a number), got `{}`", t.s),
    }
}

fn parse_proc(t: Tok<'_>, what: &str) -> Result<ProcId, WlError> {
    let v = parse_num(t, what)?;
    match u32::try_from(v) {
        Ok(p) => Ok(p),
        Err(_) => bail!(t.span, "{what} {v} does not fit a processor id"),
    }
}

impl<'a> Parser<'a> {
    /// The next token of the current line, if it has one. Words are runs
    /// of `[A-Za-z0-9_@=]`, with a trailing `:` attached (for `label:`
    /// and `after:`); `->` and `,` are punctuation tokens; `#` starts a
    /// comment. A line ends at `\n`; a `\r` before it is whitespace like
    /// any other.
    fn next(&mut self) -> Option<Tok<'a>> {
        let bytes = self.text.as_bytes();
        let word = |c: u8| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'@' | b'=');
        loop {
            let start = self.at;
            let rest = &bytes[start..];
            match *rest.first()? {
                b'\n' => return None,
                b'#' => {
                    self.at += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                    return None;
                }
                c if c.is_ascii_whitespace() => {
                    self.at += 1;
                    continue;
                }
                b',' => self.at += 1,
                b'-' if rest.get(1) == Some(&b'>') => self.at += 2,
                c if word(c) => {
                    self.at += rest.iter().position(|&c| !word(c)).unwrap_or(rest.len());
                    self.at += usize::from(bytes.get(self.at) == Some(&b':'));
                }
                _ => {
                    self.stray.get_or_insert(start);
                    return None;
                }
            }
            return Some(Tok {
                s: &self.text[start..self.at],
                span: self.span_at(start),
            });
        }
    }

    fn span_at(&self, offset: usize) -> Span {
        Span::new(self.lineno, (offset - self.line_start) as u32 + 1)
    }

    /// Move to the next line, reporting this line's stray character if it
    /// has one — whether or not the statement read that far.
    fn end_line(&mut self) -> Result<(), WlError> {
        while self.stray.is_none() && self.next().is_some() {}
        if let Some(at) = self.stray {
            // Everything before it on the line is ASCII, so the byte
            // offset is the character column.
            let c = self.text[at..].chars().next().expect("in bounds");
            bail!(self.span_at(at), "unexpected character `{c}`");
        }
        // `next` stopped at the newline or at the end of the text.
        self.at = (self.at + 1).min(self.text.len());
        (self.line_start, self.lineno) = (self.at, self.lineno + 1);
        Ok(())
    }

    fn statement(&mut self) -> Result<(), WlError> {
        let Some(head) = self.next() else {
            return Ok(());
        };
        if DIRECTIVES.contains(&head.s) {
            return self.directive(head);
        }
        let Some(label) = head.s.strip_suffix(':').filter(|l| !l.is_empty()) else {
            let e = WlError::at(
                head.span,
                format!("expected `label:` to open the statement, got `{}`", head.s),
            );
            if OPS.contains(&head.s) {
                let n = self.nodes.len();
                let try_this = format!("statements are labeled; try `n{n}: {} ...`", head.s);
                return Err(e.with_help(try_this));
            }
            return Err(suggest(e, head.s, DIRECTIVES, |m| {
                format!("did you mean the directive `{m}`?")
            }));
        };
        if !is_ident(label) {
            bail!(
                head.span,
                "invalid label `{label}` (labels are [A-Za-z_][A-Za-z0-9_]*)"
            );
        }
        let headers = [
            ("workload <name>", self.name.is_none()),
            ("procs <N>", self.procs.is_none()),
        ];
        if let Some((header, _)) = headers.iter().find(|h| h.1) {
            bail!(
                head.span,
                "missing `{header}` header (it must come before the first node)"
            );
        }
        let Some(kw) = self.next() else {
            bail!(
                head.span,
                "label `{label}` has no operation; expected one of {OPS:?}"
            );
        };
        if !OPS.contains(&kw.s) {
            let e = WlError::at(kw.span, format!("unknown operation `{}`", kw.s));
            return Err(suggest(e, kw.s, OPS, |m| format!("did you mean `{m}`?")));
        }
        let id = self.nodes.len() as NodeId;
        if id == NodeId::MAX {
            bail!(head.span, "too many nodes: node ids are 32 bits");
        }
        let (proc, op, rest) = self.operation(kw)?;
        self.after(id, rest, kw)?;
        match self.labels.entry(label) {
            Entry::Vacant(free) => drop(free.insert(id)),
            Entry::Occupied(first) => drop(self.duplicate.get_or_insert((id, *first.get()))),
        }
        self.nodes.push(label, proc, op, head.span);
        Ok(())
    }

    fn directive(&mut self, head: Tok<'a>) -> Result<(), WlError> {
        let seen = match head.s {
            "workload" => self.name.is_some(),
            "procs" => self.procs.is_some(),
            _ => self.preset.is_some(),
        };
        if seen {
            bail!(head.span, "duplicate `{}` directive", head.s);
        }
        let (arg, extra) = (self.next(), self.next());
        let one_word = |what: &str| match (arg, extra) {
            (Some(t), None) => Ok(t),
            (None, _) => bail!(head.span, "`{}` needs {what}", head.s),
            (_, Some(x)) => bail!(
                x.span,
                "unexpected token `{}` after `{} <{what}>`",
                x.s,
                head.s
            ),
        };
        match head.s {
            "workload" => {
                let name = one_word("a name")?;
                if !is_ident(name.s) {
                    bail!(
                        name.span,
                        "invalid workload name `{}` (use [A-Za-z_][A-Za-z0-9_]*)",
                        name.s
                    );
                }
                self.name = Some(name.s);
            }
            "procs" => {
                let (Some(t), None) = (arg, extra) else {
                    bail!(head.span, "`procs` needs a processor count");
                };
                let n = parse_proc(t, "the processor count")?;
                if n == 0 {
                    bail!(t.span, "procs must be at least 1");
                }
                if n > MAX_PROCS {
                    bail!(
                        t.span,
                        "procs {n} is more than the engines address (at most {MAX_PROCS})"
                    );
                }
                self.procs = Some(n);
            }
            _ => self.preset = Some(one_word("a machine-preset name")?.s),
        }
        Ok(())
    }

    /// Parse one operation's positional arguments and `key=value`
    /// options; returns `(proc, op, next)` where `next` is the first
    /// token not consumed: nothing, or what should be `after:`.
    fn operation(&mut self, kw: Tok<'a>) -> Result<(ProcId, Op, Option<Tok<'a>>), WlError> {
        match kw.s {
            "send" | "recv" => {
                let (Some(src), Some(arrow), Some(dst)) = (self.next(), self.next(), self.next())
                else {
                    bail!(kw.span, "`{}` needs `<src> -> <dst>`", kw.s);
                };
                let src = parse_proc(src, "the source processor")?;
                if arrow.s != "->" {
                    bail!(
                        arrow.span,
                        "expected `->` after the source processor, got `{}`",
                        arrow.s
                    );
                }
                let dst = parse_proc(dst, "the destination processor")?;
                let (tag, payload, rest) = self.options(kw)?;
                Ok(if kw.s == "send" {
                    (src, Op::Send { dst, tag, payload }, rest)
                } else {
                    (dst, Op::Recv { src, tag }, rest)
                })
            }
            "compute" | "timer" => {
                let Some(cycles) = self.next() else {
                    bail!(kw.span, "`{}` needs `<cycles> @<proc>`", kw.s);
                };
                let cycles = parse_num(cycles, "a cycle count")?;
                let proc = self.at_proc(kw, "the cycle count")?;
                let op = if kw.s == "compute" {
                    Op::Compute { cycles }
                } else {
                    Op::Timer { cycles }
                };
                Ok((proc, op, self.next()))
            }
            _ => Ok((self.at_proc(kw, "`barrier`")?, Op::Barrier, self.next())),
        }
    }

    /// Expect a `@<proc>` token next.
    fn at_proc(&mut self, kw: Tok<'a>, after_what: &str) -> Result<ProcId, WlError> {
        let Some(t) = self.next() else {
            bail!(kw.span, "`{}` needs a `@<proc>` processor assignment", kw.s);
        };
        let Some(num) = t.s.strip_prefix('@') else {
            bail!(
                t.span,
                "expected `@<proc>` after {after_what}, got `{}`",
                t.s
            );
        };
        let span = Span::new(t.span.line, t.span.col + 1);
        parse_proc(Tok { s: num, span }, "the processor id")
    }

    /// Read `key=value` tokens up to `after:` or the end of the line;
    /// returns `(tag, payload, the after: token)`. A malformed token
    /// anywhere in the run outranks a well-formed option that does not
    /// apply, so the first of those is held back until the run ends.
    fn options(&mut self, kw: Tok<'a>) -> Result<(u32, Payload, Option<Tok<'a>>), WlError> {
        let send = kw.s == "send";
        let (mut tag, mut payload) = (0u32, Payload::Empty);
        let mut rejected: Option<WlError> = None;
        let rest = loop {
            let t = match self.next() {
                Some(t) if t.s != "after:" => t,
                rest => break rest,
            };
            let Some((key, val)) = t.s.split_once('=') else {
                let e = WlError::at(
                    t.span,
                    format!("unexpected token `{}` after `{} <src> -> <dst>`", t.s, kw.s),
                );
                return Err(match t.s {
                    "after" => e.with_help(AFTER_HINT),
                    _ => e,
                });
            };
            let span = Span::new(t.span.line, t.span.col + key.len() as u32 + 1);
            let val = parse_num(Tok { s: val, span }, format_args!("a value for `{key}=`"))?;
            let reject = |msg: String| Some(WlError::at(t.span, msg));
            let rejection = match (key, u32::try_from(val)) {
                ("tag", Ok(v)) => {
                    tag = v;
                    None
                }
                ("tag", Err(_)) => reject(format!("tag {val} does not fit 32 bits")),
                ("data", _) if send => {
                    payload = Payload::Word(val);
                    None
                }
                ("words", Ok(w)) if send && w <= MAX_BLOCK_WORDS => {
                    payload = Payload::Block(w);
                    None
                }
                ("words", _) if send => reject(format!(
                    "payload size {val} words is too large (at most {MAX_BLOCK_WORDS})"
                )),
                ("data" | "words", _) => {
                    reject(format!("`{key}=` is only valid on `send`, not `recv`"))
                }
                _ => {
                    let e = WlError::at(t.span, format!("unknown option `{key}=` on `{}`", kw.s));
                    let known = &["tag", "data", "words"][..if send { 3 } else { 1 }];
                    Some(suggest(e, key, known.iter().copied(), |m| {
                        format!("did you mean `{m}=`?")
                    }))
                }
            };
            rejected = rejected.or(rejection);
        };
        rejected.map_or(Ok((tag, payload, rest)), Err)
    }

    /// Parse the trailing `after: a, b, c` clause (labels, comma or
    /// whitespace separated) of node `id` into the arena, for the `push`
    /// that closes the node; `head` is the first token after the
    /// operation, if any.
    fn after(&mut self, id: NodeId, head: Option<Tok<'a>>, kw: Tok<'a>) -> Result<(), WlError> {
        let Some(head) = head else {
            return Ok(());
        };
        if head.s != "after:" {
            let e = WlError::at(
                head.span,
                format!(
                    "unexpected token `{}` at end of `{}` statement",
                    head.s, kw.s
                ),
            );
            return Err(suggest(e, head.s, ["after:"], |_| AFTER_HINT.into()));
        }
        // The dangling comma, if the last token was one.
        let mut comma = None;
        let mut want_label = true;
        let mut listed = 0u32;
        while let Some(t) = self.next() {
            if t.s == "," {
                if want_label {
                    bail!(t.span, "expected a dependency label, got `,`");
                }
                (comma, want_label) = (Some(t.span), true);
            } else if is_ident(t.s) {
                let known = self.labels.get(t.s).copied();
                if known.is_none() {
                    self.forward.push((id, listed, t.s));
                }
                self.nodes.push_dep(known.unwrap_or(NodeId::MAX), t.span);
                listed += 1;
                (comma, want_label) = (None, false);
            } else {
                bail!(t.span, "expected a dependency label, got `{}`", t.s);
            }
        }
        if listed == 0 {
            bail!(head.span, "`after:` needs at least one dependency label");
        }
        if let Some(span) = comma {
            bail!(
                span,
                "trailing `,` in `after:` list (expected another label)"
            );
        }
        Ok(())
    }

    /// Headers present, labels unique, forward references patched.
    fn finish(self) -> Result<Workload, WlError> {
        let start = Span::new(1, 1);
        let Some(name) = self.name else {
            bail!(
                start,
                "missing `workload <name>` header (it must be the first statement)"
            );
        };
        let Some(procs) = self.procs else {
            bail!(
                start,
                "missing `procs <N>` header (declare the processor count)"
            );
        };
        let mut wl = Workload {
            name: name.to_string(),
            procs,
            preset: self.preset.map(str::to_string),
            nodes: self.nodes,
        };
        if let Some((again, first)) = self.duplicate {
            bail!(
                wl.nodes.span(again),
                "duplicate label `{}` (first defined at line {})",
                wl.nodes.at(again as usize).label,
                wl.nodes.span(first).line
            );
        }
        for (node, k, label) in self.forward {
            let Some(&dep) = self.labels.get(label) else {
                let e = WlError::at(
                    wl.nodes.dep_span(node, k as usize),
                    format!("unknown dependency `{label}`"),
                );
                let defined = wl.nodes.iter().map(|n| n.label);
                return Err(suggest(e, label, defined, |m| {
                    format!("did you mean `{m}`?")
                }));
            };
            wl.nodes.set_dep(node, k as usize, dep);
        }
        // The label table above just showed it; `lower` need not again.
        wl.nodes.mark_labels_distinct();
        Ok(wl)
    }
}

/// Print a workload in the text form. `parse_workload(&to_text(&wl))`
/// round-trips to a structurally equal workload.
pub fn to_text(wl: &Workload) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "workload {}", wl.name);
    let _ = writeln!(out, "procs {}", wl.procs);
    if let Some(p) = &wl.preset {
        let _ = writeln!(out, "preset {p}");
    }
    let _ = writeln!(out);
    for node in wl.nodes.iter() {
        let _ = write!(out, "{}: ", node.label);
        match &node.op {
            Op::Send { dst, tag, payload } => {
                let _ = write!(out, "send {} -> {}", node.proc, dst);
                if *tag != 0 {
                    let _ = write!(out, " tag={tag}");
                }
                match payload {
                    Payload::Empty => {}
                    Payload::Word(v) => {
                        let _ = write!(out, " data={v}");
                    }
                    Payload::Block(n) => {
                        let _ = write!(out, " words={n}");
                    }
                }
            }
            Op::Recv { src, tag } => {
                let _ = write!(out, "recv {} -> {}", src, node.proc);
                if *tag != 0 {
                    let _ = write!(out, " tag={tag}");
                }
            }
            Op::Compute { cycles } => {
                let _ = write!(out, "compute {} @{}", cycles, node.proc);
            }
            Op::Barrier => {
                let _ = write!(out, "barrier @{}", node.proc);
            }
            Op::Timer { cycles } => {
                let _ = write!(out, "timer {} @{}", cycles, node.proc);
            }
        }
        for (k, &d) in node.deps.iter().enumerate() {
            out.push_str(if k == 0 { " after: " } else { ", " });
            out.push_str(wl.nodes.at(d as usize).label);
        }
        let _ = writeln!(out);
    }
    out
}
