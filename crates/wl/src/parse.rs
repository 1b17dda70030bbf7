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
use crate::lower::{Labels, MAX_BLOCK_WORDS, MAX_PROCS};
use logp_core::{Cycles, ProcId};
use std::fmt::Display;

const OPS: [&str; 5] = ["send", "recv", "compute", "barrier", "timer"];
const DIRECTIVES: [&str; 3] = ["workload", "procs", "preset"];

/// Parse the text form, resolving labels. Syntax errors only — run
/// [`load_workload`] to also validate the DAG.
pub fn parse_workload(text: &str) -> Result<Workload, WlError> {
    // Every label byte and every dependency takes a byte of text, and every
    // node more than one, so this one bound also keeps the arena's 32-bit
    // offsets and node ids from overflowing.
    if u32::try_from(text.len()).is_err() {
        bail!(
            Span::new(1, 1),
            "program text is {} bytes; positions in it are 32 bits (under 4 GiB)",
            text.len()
        );
    }
    // The arena is sized for ~32-byte statements, so a typical file never
    // regrows it; the label table for a statement on every line (and a
    // statement takes 11 bytes at least).
    let guess = (text.len() / 32).min(1 << 20);
    let lines = text.bytes().filter(|&c| c == b'\n').count();
    let mut p = Parser {
        text,
        lineno: 1,
        nodes: Nodes::with_capacity(guess),
        labels: Labels::with_capacity(lines.min(text.len() / 11) + 1),
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

/// A token of the current line: `,`, `->`, or a word with its trailing
/// `:` if it has one. Its span is worked out only for an error or a
/// token the arena keeps.
#[derive(Clone, Copy)]
struct Tok<'a> {
    s: &'a str,
    /// Byte offset of its first character in the text.
    at: usize,
    /// The word, less its `:`, is an identifier (as the scan saw).
    ident: bool,
}

impl Tok<'_> {
    /// The rest of the token from byte `k` on, to be read as a number.
    fn tail(self, k: usize) -> Self {
        let (s, at) = (&self.s[k..], self.at + k);
        Tok { s, at, ..self }
    }
}

/// The loader: one forward scan over the text, a line at a time. A token
/// is classified as it is read, a number read from its bytes, and both go
/// straight into the node arena; labels are interned as they are defined,
/// so an `after:` entry naming an earlier node resolves on the spot. A
/// statement that is accepted has read its line to the end.
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
    labels: Labels,
    /// The first redefined label: `(redefinition, first definition)`.
    /// Reported after the pass, since any syntax error outranks it.
    duplicate: Option<(NodeId, NodeId)>,
    /// `after:` entries naming a label not defined yet, patched (or
    /// rejected) at the end: `(node, position in its deps, label)`.
    forward: Vec<(NodeId, u32, &'a str)>,
}

/// The edit distance between `a` and `b` if it is at most 2. A path that
/// short stays within two cells of the table's diagonal, so only that
/// band of each row is filled (the cell left of it reads as "over 2"),
/// and a row with nothing in reach ends the search: linear in the
/// strings, however long and alike two hostile labels are.
fn within_two(a: &str, b: &str) -> Option<usize> {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    if a.len().abs_diff(b.len()) > 2 {
        return None;
    }
    let mut prev: Vec<usize> = (0..=b.len()).map(|j| j.min(3)).collect();
    let mut cur = vec![3; b.len() + 1];
    for (i, &ca) in (1usize..).zip(&a) {
        let band = i.saturating_sub(2)..=(i + 2).min(b.len());
        cur[i.saturating_sub(3)] = i.min(3);
        for j in (*band.start()).max(1)..=*band.end() {
            let sub = prev[j - 1] + usize::from(ca != b[j - 1]);
            cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1).min(3);
        }
        if cur[band].iter().all(|&d| d == 3) {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    Some(prev[b.len()]).filter(|&d| d < 3)
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
        .filter_map(|c| Some((within_two(s, c)?, c)))
        .filter(|&(d, c)| d < c.len())
        .min_by_key(|&(d, _)| d);
    match close {
        Some((_, m)) => e.with_help(hint(m)),
        None => e,
    }
}

const AFTER_HINT: &str = "did you mean `after:` (with the colon)?";

impl<'a> Parser<'a> {
    /// The next token of the current line, if it has one. Words are runs
    /// of `[A-Za-z0-9_@=]`, with a trailing `:` attached (for `label:`
    /// and `after:`); `->` and `,` are punctuation tokens; `#` starts a
    /// comment. A line ends at `\n`; a `\r` before it is whitespace like
    /// any other.
    #[inline(always)] // the caller reads the token it returns in place
    fn next(&mut self) -> Option<Tok<'a>> {
        let bytes = self.text.as_bytes();
        let word = |c: &u8| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'@' | b'=');
        loop {
            let (at, mut ident) = (self.at, false);
            let rest = &bytes[at..];
            let len = match *rest.first()? {
                b'\n' => return None,
                b'#' => {
                    self.at += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                    return None;
                }
                c if c.is_ascii_whitespace() => {
                    self.at += 1;
                    continue;
                }
                b',' => 1,
                b'-' if rest.get(1) == Some(&b'>') => 2,
                // One pass for the word's extent and whether it is an
                // identifier.
                c if word(&c) => {
                    let run = rest.iter().take_while(|c| word(c));
                    let len;
                    (len, ident) = run.fold((0, !c.is_ascii_digit()), |(n, ident), c| {
                        (n + 1, ident && !matches!(c, b'@' | b'='))
                    });
                    len + usize::from(rest.get(len) == Some(&b':'))
                }
                _ => {
                    self.stray.get_or_insert(at);
                    return None;
                }
            };
            self.at += len;
            let s = &self.text[at..at + len];
            return Some(Tok { s, at, ident });
        }
    }

    /// The source position of text offset `at` on this line.
    fn span(&self, at: usize) -> Span {
        Span::new(self.lineno, (at - self.line_start) as u32 + 1)
    }

    /// `t` as a number: ASCII digits only, read a byte at a time, at most
    /// `u64::MAX`.
    fn num(&self, t: &Tok<'_>, what: impl Display) -> Result<u64, WlError> {
        let mut digits =
            t.s.bytes()
                .map(|b| b.is_ascii_digit().then(|| u64::from(b - b'0')));
        let v = digits.try_fold(0u64, |v, d| v.checked_mul(10)?.checked_add(d?));
        match v.filter(|_| !t.s.is_empty()) {
            Some(v) => Ok(v),
            None => bail!(self.span(t.at), "expected {what} (a number), got `{}`", t.s),
        }
    }

    fn proc_id(&self, t: &Tok<'_>, what: &str) -> Result<ProcId, WlError> {
        let v = self.num(t, what)?;
        let too_big = |_| format!("{what} {v} does not fit a processor id");
        u32::try_from(v).map_err(|e| WlError::at(self.span(t.at), too_big(e)))
    }

    /// Move to the next line, reporting this line's stray character if it
    /// has one — whether or not the statement read that far. After an
    /// accepted statement the scan is at the line's end already.
    fn end_line(&mut self) -> Result<(), WlError> {
        while self.stray.is_none() && self.next().is_some() {}
        if let Some(at) = self.stray {
            // Everything before it on the line is ASCII, so the byte
            // offset is the character column.
            let c = self.text[at..].chars().next().expect("in bounds");
            bail!(self.span(at), "unexpected character `{c}`");
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
        let span = self.span(head.at);
        let Some(label) = head.s.strip_suffix(':') else {
            if DIRECTIVES.contains(&head.s) {
                return self.directive(head);
            }
            let e = WlError::at(
                span,
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
        if !head.ident {
            bail!(
                span,
                "invalid label `{label}` (labels are [A-Za-z_][A-Za-z0-9_]*)"
            );
        }
        let headers = [
            ("workload <name>", self.name.is_none()),
            ("procs <N>", self.procs.is_none()),
        ];
        if let Some((header, _)) = headers.iter().find(|h| h.1) {
            bail!(
                span,
                "missing `{header}` header (it must come before the first node)"
            );
        }
        let Some(kw) = self.next() else {
            bail!(
                span,
                "label `{label}` has no operation; expected one of {OPS:?}"
            );
        };
        let id = self.nodes.len() as NodeId;
        let (proc, op, rest) = self.operation(&kw)?;
        self.after(id, rest, &kw)?;
        let first = self.labels.insert(label, id, &self.nodes);
        self.duplicate = self.duplicate.or(first.map(|first| (id, first)));
        self.nodes.push(label, proc, op, span);
        Ok(())
    }

    fn directive(&mut self, head: Tok<'a>) -> Result<(), WlError> {
        let span = self.span(head.at);
        let seen = match head.s {
            "workload" => self.name.is_some(),
            "procs" => self.procs.is_some(),
            _ => self.preset.is_some(),
        };
        if seen {
            bail!(span, "duplicate `{}` directive", head.s);
        }
        let (arg, extra) = (self.next(), self.next());
        let one_word = |what: &str| match (arg, extra) {
            (Some(t), None) => Ok(t),
            (None, _) => bail!(span, "`{}` needs {what}", head.s),
            (_, Some(x)) => bail!(
                self.span(x.at),
                "unexpected token `{}` after `{} <{what}>`",
                x.s,
                head.s
            ),
        };
        match head.s {
            "workload" => {
                let name = one_word("a name")?;
                if !name.ident || name.s.ends_with(':') {
                    bail!(
                        self.span(name.at),
                        "invalid workload name `{}` (use [A-Za-z_][A-Za-z0-9_]*)",
                        name.s
                    );
                }
                self.name = Some(name.s);
            }
            "procs" => {
                let (Some(t), None) = (arg, extra) else {
                    bail!(span, "`procs` needs a processor count");
                };
                let n = self.proc_id(&t, "the processor count")?;
                if n == 0 {
                    bail!(self.span(t.at), "procs must be at least 1");
                }
                if n > MAX_PROCS {
                    bail!(
                        self.span(t.at),
                        "procs {n} is more than the engines address (at most {MAX_PROCS})"
                    );
                }
                self.procs = Some(n);
            }
            _ => self.preset = Some(one_word("a machine-preset name")?.s),
        }
        Ok(())
    }

    /// Parse one operation, told apart by its keyword once; returns
    /// `(proc, op, next)` where `next` is the first token not consumed:
    /// nothing, or what should be `after:`.
    fn operation(&mut self, kw: &Tok<'a>) -> Result<(ProcId, Op, Option<Tok<'a>>), WlError> {
        let (proc, op) = match kw.s {
            "send" => return self.channel(kw, true),
            "recv" => return self.channel(kw, false),
            "compute" => self.timed(kw, |cycles| Op::Compute { cycles })?,
            "timer" => self.timed(kw, |cycles| Op::Timer { cycles })?,
            "barrier" => (self.at_proc(kw, "`barrier`")?, Op::Barrier),
            _ => {
                let e = WlError::at(self.span(kw.at), format!("unknown operation `{}`", kw.s));
                return Err(suggest(e, kw.s, OPS, |m| format!("did you mean `{m}`?")));
            }
        };
        Ok((proc, op, self.next()))
    }

    /// `send` or `recv`: `<src> -> <dst>` and the options.
    fn channel(
        &mut self,
        kw: &Tok<'a>,
        send: bool,
    ) -> Result<(ProcId, Op, Option<Tok<'a>>), WlError> {
        let (Some(src), Some(arrow), Some(dst)) = (self.next(), self.next(), self.next()) else {
            bail!(self.span(kw.at), "`{}` needs `<src> -> <dst>`", kw.s);
        };
        let src = self.proc_id(&src, "the source processor")?;
        if arrow.s != "->" {
            bail!(
                self.span(arrow.at),
                "expected `->` after the source processor, got `{}`",
                arrow.s
            );
        }
        let dst = self.proc_id(&dst, "the destination processor")?;
        let (tag, payload, rest) = self.options(kw, send)?;
        Ok(if send {
            (src, Op::Send { dst, tag, payload }, rest)
        } else {
            (dst, Op::Recv { src, tag }, rest)
        })
    }

    /// `compute` or `timer`: `<cycles> @<proc>`.
    fn timed(&mut self, kw: &Tok<'a>, op: fn(Cycles) -> Op) -> Result<(ProcId, Op), WlError> {
        let Some(cycles) = self.next() else {
            bail!(self.span(kw.at), "`{}` needs `<cycles> @<proc>`", kw.s);
        };
        let cycles = self.num(&cycles, "a cycle count")?;
        Ok((self.at_proc(kw, "the cycle count")?, op(cycles)))
    }

    /// Expect a `@<proc>` token next.
    fn at_proc(&mut self, kw: &Tok<'a>, after_what: &str) -> Result<ProcId, WlError> {
        let Some(t) = self.next() else {
            bail!(
                self.span(kw.at),
                "`{}` needs a `@<proc>` processor assignment",
                kw.s
            );
        };
        if !t.s.starts_with('@') {
            bail!(
                self.span(t.at),
                "expected `@<proc>` after {after_what}, got `{}`",
                t.s
            );
        }
        self.proc_id(&t.tail(1), "the processor id")
    }

    /// Read `key=value` tokens up to `after:` or the end of the line;
    /// returns `(tag, payload, the after: token)`. A malformed token
    /// anywhere in the run outranks a well-formed option that does not
    /// apply, so the first of those is held back until the run ends.
    fn options(
        &mut self,
        kw: &Tok<'a>,
        send: bool,
    ) -> Result<(u32, Payload, Option<Tok<'a>>), WlError> {
        let (mut tag, mut payload) = (0u32, Payload::Empty);
        let mut rejected: Option<WlError> = None;
        let rest = loop {
            let t = match self.next() {
                Some(t) if t.s != "after:" => t,
                rest => break rest,
            };
            let span = self.span(t.at);
            let Some((key, _)) = t.s.split_once('=') else {
                let e = WlError::at(
                    span,
                    format!("unexpected token `{}` after `{} <src> -> <dst>`", t.s, kw.s),
                );
                return Err(match t.s {
                    "after" => e.with_help(AFTER_HINT),
                    _ => e,
                });
            };
            let val = self.num(&t.tail(key.len() + 1), format_args!("a value for `{key}=`"))?;
            let reject = |msg: String| Some(WlError::at(span, msg));
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
                    let e = WlError::at(span, format!("unknown option `{key}=` on `{}`", kw.s));
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
    fn after(&mut self, id: NodeId, head: Option<Tok<'a>>, kw: &Tok<'a>) -> Result<(), WlError> {
        let Some(head) = head else {
            return Ok(());
        };
        if head.s != "after:" {
            let e = WlError::at(
                self.span(head.at),
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
            let span = self.span(t.at);
            if t.s == "," {
                if want_label {
                    bail!(span, "expected a dependency label, got `,`");
                }
                (comma, want_label) = (Some(span), true);
            } else if t.ident && !t.s.ends_with(':') {
                let known = self.labels.find(t.s, &self.nodes).ok();
                if known.is_none() {
                    self.forward.push((id, listed, t.s));
                }
                self.nodes.push_dep(known.unwrap_or(NodeId::MAX), span);
                listed += 1;
                (comma, want_label) = (None, false);
            } else {
                bail!(span, "expected a dependency label, got `{}`", t.s);
            }
        }
        if listed == 0 {
            bail!(
                self.span(head.at),
                "`after:` needs at least one dependency label"
            );
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
            let Ok(dep) = self.labels.find(label, &wl.nodes) else {
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
    let mut out = format!("workload {}\nprocs {}\n", wl.name, wl.procs);
    if let Some(p) = &wl.preset {
        out += &format!("preset {p}\n");
    }
    out.push('\n');
    let tag = |t: u32| match t {
        0 => String::new(),
        t => format!(" tag={t}"),
    };
    for node in wl.nodes.iter() {
        let (label, p) = (node.label, node.proc);
        out += &match node.op {
            Op::Send {
                dst,
                tag: t,
                payload,
            } => {
                let payload = match payload {
                    Payload::Empty => String::new(),
                    Payload::Word(v) => format!(" data={v}"),
                    Payload::Block(n) => format!(" words={n}"),
                };
                format!("{label}: send {p} -> {dst}{}{payload}", tag(t))
            }
            Op::Recv { src, tag: t } => format!("{label}: recv {src} -> {p}{}", tag(t)),
            Op::Compute { cycles } => format!("{label}: compute {cycles} @{p}"),
            Op::Barrier => format!("{label}: barrier @{p}"),
            Op::Timer { cycles } => format!("{label}: timer {cycles} @{p}"),
        };
        for (k, &d) in node.deps.iter().enumerate() {
            out.push_str(if k == 0 { " after: " } else { ", " });
            out.push_str(wl.nodes.at(d as usize).label);
        }
        out.push('\n');
    }
    out
}
