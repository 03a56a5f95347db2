//! A textual trace format for runs, so concrete executions can be
//! written, audited, and queried from files (see the `atl` CLI).
//!
//! The format is line-based; `#` starts a comment:
//!
//! ```text
//! run start -2
//! principal A keys Kas
//! principal S keys Kas Kbs
//! env keys Ke
//! bind Kab = K9                # run parameter (Section 8)
//!
//! send A -> S : Na             # one action per line, in order
//! recv S : Na
//! newkey S Kab
//! ```
//!
//! Messages use the [`atl_lang::parser`] concrete syntax; principals and
//! keys declared in the header seed its symbol table. Construction goes
//! through the *unchecked* path so deliberately ill-formed traces can be
//! written and then audited with
//! [`validate_run`](crate::validate::validate_run).

use crate::error::ModelError;
use crate::run::{Run, RunBuilder};
use atl_lang::parser::{parse_message, Symbols};
use atl_lang::{Key, Param, Principal};
use std::error::Error;
use std::fmt;

/// Error produced when a trace fails to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl TraceError {
    /// The one-line `file:line: message` diagnostic for this error, the
    /// format every parse failure surfaces in (CLI exit code 3, daemon
    /// `ERR` lines).
    pub fn diagnostic(&self, origin: &str) -> String {
        format!("{origin}:{}: {}", self.line, self.message)
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl Error for TraceError {}

fn err(line: usize, message: impl Into<String>) -> TraceError {
    TraceError {
        line,
        message: message.into(),
    }
}

/// Splits `A keys K1 K2 …` (the key list may be absent).
fn split_keys(rest: &str, lineno: usize) -> Result<(String, Vec<String>), TraceError> {
    let mut parts = rest.split_whitespace();
    let name = parts
        .next()
        .ok_or_else(|| err(lineno, "principal needs a name"))?
        .to_string();
    let keys: Vec<String> = match parts.next() {
        Some("keys") => parts.map(str::to_string).collect(),
        None => Vec::new(),
        Some(other) => return Err(err(lineno, format!("expected `keys`, found `{other}`"))),
    };
    Ok((name, keys))
}

/// One classified trace line. Both the batch parser ([`parse_trace`])
/// and the streaming feed ([`TraceFeed`]) go through
/// [`classify_line`] + the `apply_*` helpers below, so there is exactly
/// one grammar — a line means the same thing whether it arrives from a
/// file, stdin, or the serve-mode `EVENT` verb.
#[derive(Clone, Debug, PartialEq, Eq)]
enum TraceLine {
    /// Blank or comment-only.
    Blank,
    /// `run start <time>`.
    RunStart(i64),
    /// `principal P keys K1 K2 …`.
    Principal { name: String, keys: Vec<String> },
    /// `env keys K1 K2 …`.
    EnvKeys(Vec<String>),
    /// `bind PARAM = MESSAGE` (message text kept raw; it parses against
    /// the symbol table when applied).
    Bind { param: String, value: String },
    /// `send`/`recv`/`newkey` with its argument text.
    Action { keyword: ActionKind, rest: String },
}

/// The three action keywords.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ActionKind {
    Send,
    Recv,
    NewKey,
}

/// Classifies one raw line (comments stripped) without touching any
/// builder state.
fn classify_line(raw: &str, lineno: usize) -> Result<TraceLine, TraceError> {
    let line = raw.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(TraceLine::Blank);
    }
    let (keyword, rest) = match line.split_once(char::is_whitespace) {
        Some((k, r)) => (k, r.trim()),
        None => (line, ""),
    };
    match keyword {
        "run" => {
            let rest = rest
                .strip_prefix("start")
                .map(str::trim)
                .ok_or_else(|| err(lineno, "expected `run start <time>`"))?;
            let t = rest
                .parse()
                .map_err(|_| err(lineno, format!("bad start time `{rest}`")))?;
            Ok(TraceLine::RunStart(t))
        }
        "principal" => {
            let (name, keys) = split_keys(rest, lineno)?;
            Ok(TraceLine::Principal { name, keys })
        }
        "env" => {
            let keys = rest
                .strip_prefix("keys")
                .map(str::trim)
                .ok_or_else(|| err(lineno, "expected `env keys K1 K2 …`"))?;
            Ok(TraceLine::EnvKeys(
                keys.split_whitespace().map(str::to_string).collect(),
            ))
        }
        "bind" => {
            let Some((param, value)) = rest.split_once('=') else {
                return Err(err(lineno, "expected `bind PARAM = MESSAGE`"));
            };
            Ok(TraceLine::Bind {
                param: param.trim().to_string(),
                value: value.trim().to_string(),
            })
        }
        "send" | "recv" | "newkey" => {
            if rest.is_empty() {
                return Err(err(lineno, format!("`{keyword}` takes arguments")));
            }
            let keyword = match keyword {
                "send" => ActionKind::Send,
                "recv" => ActionKind::Recv,
                _ => ActionKind::NewKey,
            };
            Ok(TraceLine::Action {
                keyword,
                rest: rest.to_string(),
            })
        }
        other => Err(err(lineno, format!("unknown directive `{other}`"))),
    }
}

/// Applies a `bind` directive (the message parses against `syms`).
fn apply_bind(
    builder: &mut RunBuilder,
    syms: &Symbols,
    param: &str,
    value: &str,
    lineno: usize,
) -> Result<(), TraceError> {
    let m = parse_message(value, syms).map_err(|e| err(lineno, e.to_string()))?;
    builder.bind_param(Param::new(param), m);
    Ok(())
}

/// Applies one action line to the builder.
fn apply_action(
    builder: &mut RunBuilder,
    syms: &Symbols,
    keyword: ActionKind,
    rest: &str,
    lineno: usize,
) -> Result<(), TraceError> {
    match keyword {
        ActionKind::Send => {
            let Some((route, message)) = rest.split_once(':') else {
                return Err(err(lineno, "send needs `FROM -> TO : MESSAGE`"));
            };
            let Some((from, to)) = route.split_once("->") else {
                return Err(err(lineno, "send route needs `FROM -> TO`"));
            };
            let m = parse_message(message.trim(), syms).map_err(|e| err(lineno, e.to_string()))?;
            builder.send_unchecked(from.trim(), m, to.trim());
        }
        ActionKind::Recv => {
            let Some((p, message)) = rest.split_once(':') else {
                return Err(err(lineno, "recv needs `P : MESSAGE`"));
            };
            let m = parse_message(message.trim(), syms).map_err(|e| err(lineno, e.to_string()))?;
            builder
                .receive(p.trim(), &m)
                .map_err(|e| err(lineno, e.to_string()))?;
        }
        ActionKind::NewKey => {
            let mut parts = rest.split_whitespace();
            let (Some(p), Some(k), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(err(lineno, "newkey takes exactly `newkey P K`"));
            };
            // `__pad` is the reserved padding key (see
            // `RunBuilder::idle`): the executor emits it without
            // recording any history, so replay it through the same
            // path — otherwise a rendered run would not parse back
            // to an equal run, and outcomes shipped through the
            // wire codec would stop deduplicating against local
            // executions.
            if k == "__pad" && p == Principal::environment().to_string() {
                builder.idle();
            } else {
                builder.new_key(p, k);
            }
        }
    }
    Ok(())
}

/// Parses a trace into a [`Run`] (unchecked — audit with
/// [`validate_run`](crate::validate::validate_run)) plus the declared
/// symbol table, for parsing queries against the run.
///
/// # Errors
///
/// [`TraceError`] with the offending line on any problem, including a
/// `recv` of a message that was never sent to that principal (the only
/// model-level check that cannot be deferred).
pub fn parse_trace(input: &str) -> Result<(Run, Symbols), TraceError> {
    let mut start_time: i64 = 0;
    // The environment principal is always known to the symbol table.
    let mut syms = Symbols::new().principals(["Env".to_string()]);
    let mut builder: Option<RunBuilder> = None;
    let mut header_done = false;
    let mut pending: Vec<(usize, TraceLine)> = Vec::new();

    // First pass: header (so the symbol table is complete before any
    // message parses).
    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        match classify_line(raw, lineno)? {
            TraceLine::Blank => {}
            TraceLine::RunStart(t) => start_time = t,
            TraceLine::Principal { name, keys } => {
                syms = syms.principals([name.clone()]).keys(keys.clone());
                builder
                    .get_or_insert_with(|| RunBuilder::new(start_time))
                    .principal(name.as_str(), keys.iter().map(Key::new));
                if header_done {
                    return Err(err(lineno, "principal declarations must precede actions"));
                }
            }
            TraceLine::EnvKeys(keys) => {
                syms = syms.keys(keys.clone()).principals(["Env".to_string()]);
                builder
                    .get_or_insert_with(|| RunBuilder::new(start_time))
                    .env_keys(keys.iter().map(Key::new));
            }
            line @ TraceLine::Bind { .. } => pending.push((lineno, line)),
            line @ TraceLine::Action { .. } => {
                header_done = true;
                pending.push((lineno, line));
            }
        }
    }
    let mut builder = builder.ok_or_else(|| err(0, "trace declares no principals"))?;

    // Second pass: actions, with the full symbol table.
    for (lineno, line) in pending {
        match line {
            TraceLine::Bind { param, value } => {
                apply_bind(&mut builder, &syms, &param, &value, lineno)?;
            }
            TraceLine::Action { keyword, rest } => {
                apply_action(&mut builder, &syms, keyword, &rest, lineno)?;
            }
            _ => unreachable!("only bind and action lines are deferred"),
        }
    }
    let run = builder
        .finish()
        .map_err(|e: ModelError| err(0, e.to_string()))?;
    Ok((run, syms))
}

/// What one line fed to a [`TraceFeed`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeedOutcome {
    /// A blank line, comment, or header directive: no event appended.
    Directive,
    /// An action line: one event appended, performed at `time`.
    Event {
        /// The time at which the appended event was performed.
        time: i64,
    },
}

/// A streaming, line-at-a-time trace parser — the same grammar as
/// [`parse_trace`] (both go through one shared classifier and one shared
/// set of apply helpers), applied incrementally so a consumer can react
/// after every event instead of waiting for the whole trace.
///
/// One divergence is deliberate and *stricter*, never looser: a stream
/// cannot defer directives, so `run start`, `env keys`, and `bind` are
/// rejected once the first action has been fed (the batch parser hoists
/// them in its first pass). Every trace produced by
/// [`render_trace`] is well-ordered and parses identically either way.
///
/// Line numbers for diagnostics count every fed line (including blanks
/// and comments), so a `TraceError` from a feed carries the same
/// `file:line:` position the batch parser would report for the same
/// input.
#[derive(Clone, Debug, Default)]
pub struct TraceFeed {
    start_time: i64,
    syms: Symbols,
    builder: Option<RunBuilder>,
    header_done: bool,
    lineno: usize,
}

impl TraceFeed {
    /// An empty feed (start time 0 until a `run start` line arrives).
    pub fn new() -> Self {
        TraceFeed {
            start_time: 0,
            syms: Symbols::new().principals(["Env".to_string()]),
            builder: None,
            header_done: false,
            lineno: 0,
        }
    }

    /// 1-based number of the last fed line (0 before the first feed).
    pub fn line(&self) -> usize {
        self.lineno
    }

    /// The symbol table declared by the header so far.
    pub fn symbols(&self) -> &Symbols {
        &self.syms
    }

    /// The run under construction, if any declaration arrived yet.
    pub fn builder(&self) -> Option<&RunBuilder> {
        self.builder.as_ref()
    }

    /// Builds the current prefix as a [`Run`], or `None` while the
    /// prefix is still unbuildable (no declarations yet, or a past-epoch
    /// prefix that has not reached time 0 — exactly the prefixes
    /// [`parse_trace`] rejects too).
    pub fn try_build(&self) -> Option<Run> {
        self.builder.clone()?.finish().ok()
    }

    /// Feeds one line.
    ///
    /// # Errors
    ///
    /// [`TraceError`] positioned at the fed line on any problem — the
    /// same errors [`parse_trace`] reports, plus the stream-order
    /// rejections documented on [`TraceFeed`].
    pub fn feed(&mut self, raw: &str) -> Result<FeedOutcome, TraceError> {
        self.lineno += 1;
        let lineno = self.lineno;
        match classify_line(raw, lineno)? {
            TraceLine::Blank => Ok(FeedOutcome::Directive),
            TraceLine::RunStart(t) => {
                if self.builder.is_some() {
                    return Err(err(lineno, "`run start` must precede declarations"));
                }
                self.start_time = t;
                Ok(FeedOutcome::Directive)
            }
            TraceLine::Principal { name, keys } => {
                if self.header_done {
                    return Err(err(lineno, "principal declarations must precede actions"));
                }
                let syms = std::mem::take(&mut self.syms);
                self.syms = syms.principals([name.clone()]).keys(keys.clone());
                self.builder
                    .get_or_insert_with(|| RunBuilder::new(self.start_time))
                    .principal(name.as_str(), keys.iter().map(Key::new));
                Ok(FeedOutcome::Directive)
            }
            TraceLine::EnvKeys(keys) => {
                if self.header_done {
                    return Err(err(lineno, "`env keys` must precede actions in a stream"));
                }
                let syms = std::mem::take(&mut self.syms);
                self.syms = syms.keys(keys.clone()).principals(["Env".to_string()]);
                self.builder
                    .get_or_insert_with(|| RunBuilder::new(self.start_time))
                    .env_keys(keys.iter().map(Key::new));
                Ok(FeedOutcome::Directive)
            }
            TraceLine::Bind { param, value } => {
                if self.header_done {
                    return Err(err(lineno, "`bind` must precede actions in a stream"));
                }
                let builder = self
                    .builder
                    .get_or_insert_with(|| RunBuilder::new(self.start_time));
                apply_bind(builder, &self.syms, &param, &value, lineno)?;
                Ok(FeedOutcome::Directive)
            }
            TraceLine::Action { keyword, rest } => {
                let builder = self
                    .builder
                    .as_mut()
                    .ok_or_else(|| err(lineno, "trace declares no principals"))?;
                self.header_done = true;
                apply_action(builder, &self.syms, keyword, &rest, lineno)?;
                Ok(FeedOutcome::Event {
                    time: builder.now() - 1,
                })
            }
        }
    }
}

/// Renders a run back into the trace format. Parameters, principal key
/// sets, and all actions are preserved; symbol declarations are inferred
/// from the run.
pub fn render_trace(run: &Run) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "run start {}", run.start_time());
    let first = run.state(run.start_time()).expect("first state exists");
    for p in run.principals() {
        let keys: Vec<String> = first.key_set(p).iter().map(ToString::to_string).collect();
        let _ = writeln!(out, "principal {p} keys {}", keys.join(" "));
    }
    let env_keys: Vec<String> = first.env.key_set.iter().map(ToString::to_string).collect();
    let _ = writeln!(out, "env keys {}", env_keys.join(" ").trim_end());
    for (param, value) in run.bindings().iter() {
        let _ = writeln!(out, "bind {param} = {value}");
    }
    for (_, event) in run.events() {
        match &event.action {
            crate::action::Action::Send { message, to } => {
                let _ = writeln!(out, "send {} -> {to} : {message}", event.actor);
            }
            crate::action::Action::Receive { message } => {
                let _ = writeln!(out, "recv {} : {message}", event.actor);
            }
            crate::action::Action::NewKey { key } => {
                let _ = writeln!(out, "newkey {} {key}", event.actor);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_run;

    const GOOD: &str = r#"
# A tiny well-formed trace.
run start -1
principal A keys Kas
principal S keys Kas
send A -> S : Na          # past epoch
recv S : Na
send S -> A : {Na}Kas@S
recv A : {Na}Kas@S
"#;

    #[test]
    fn parses_and_validates() {
        let (run, _) = parse_trace(GOOD).unwrap();
        assert_eq!(run.start_time(), -1);
        assert_eq!(run.horizon(), 3);
        assert!(validate_run(&run).is_empty());
    }

    #[test]
    fn illformed_traces_parse_but_fail_the_audit() {
        // The environment says ciphertext it could never construct.
        let bad = r#"
run start 0
principal B keys Kas
send Env -> B : {X}Kzz@Env
recv B : {X}Kzz@Env
"#;
        let (run, _) = parse_trace(bad).unwrap();
        let violations = validate_run(&run);
        assert!(violations.iter().any(|v| v.restriction == 3));
    }

    #[test]
    fn recv_of_unsent_message_is_rejected_at_parse() {
        let bad = "run start 0\nprincipal A keys K\nrecv A : Na\n";
        let e = parse_trace(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("not buffered"));
    }

    #[test]
    fn bind_directive_sets_run_parameters() {
        let t = "run start 0\nprincipal A keys K9\nbind Kab = K9\nnewkey A K2\n";
        let (run, _) = parse_trace(t).unwrap();
        assert_eq!(
            run.bindings().get_key(&Param::new("Kab")),
            Some(&Key::new("K9"))
        );
    }

    #[test]
    fn render_parse_roundtrip() {
        let (run, _) = parse_trace(GOOD).unwrap();
        let rendered = render_trace(&run);
        let (again, _) = parse_trace(&rendered).unwrap();
        assert_eq!(run, again);
    }

    #[test]
    fn padded_runs_roundtrip_to_equality() {
        // Executor-style padding (`idle`) emits `newkey Env __pad`
        // without recording history; the parser must replay it through
        // the same path or the reconstructed run compares unequal.
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K")]);
        b.new_key("A", "K2");
        b.idle();
        b.idle();
        let run = b.build().unwrap();
        let rendered = render_trace(&run);
        let (again, _) = parse_trace(&rendered).unwrap();
        assert_eq!(run, again);
    }

    #[test]
    fn streaming_feed_matches_batch_at_every_buildable_prefix() {
        let mut feed = TraceFeed::new();
        let lines: Vec<&str> = GOOD.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let outcome = feed.feed(line).unwrap();
            assert_eq!(feed.line(), i + 1);
            if !matches!(outcome, FeedOutcome::Event { .. }) {
                continue;
            }
            // The streamed prefix must agree with a batch parse of the
            // same prefix text whenever the batch parse succeeds.
            let prefix = lines[..=i].join("\n");
            match parse_trace(&prefix) {
                Ok((batch_run, batch_syms)) => {
                    assert_eq!(feed.try_build().expect("buildable"), batch_run);
                    assert_eq!(*feed.symbols(), batch_syms);
                }
                Err(_) => assert!(feed.try_build().is_none(), "prefix ends before time 0"),
            }
        }
        let (full, _) = parse_trace(GOOD).unwrap();
        assert_eq!(feed.try_build().unwrap(), full);
    }

    #[test]
    fn streaming_feed_shares_the_batch_grammar_errors() {
        // Same bad lines, same messages, same line numbers.
        for (bad, needle) in [
            ("run start x", "bad start time"),
            ("frobnicate", "unknown directive"),
            ("send", "takes arguments"),
            ("recv A Na", "recv needs"),
        ] {
            let text = format!("run start 0\nprincipal A keys K\n{bad}\n");
            let batch = parse_trace(&text).unwrap_err();
            let mut feed = TraceFeed::new();
            let mut stream_err = None;
            for line in text.lines() {
                if let Err(e) = feed.feed(line) {
                    stream_err = Some(e);
                    break;
                }
            }
            let stream = stream_err.expect("stream rejects too");
            assert_eq!(batch, stream, "{bad}");
            assert!(batch.message.contains(needle), "{bad}: {}", batch.message);
        }
    }

    #[test]
    fn streaming_feed_rejects_late_header_directives() {
        let mut feed = TraceFeed::new();
        feed.feed("principal A keys K").unwrap();
        feed.feed("newkey A K2").unwrap();
        for late in [
            "principal B keys K",
            "env keys Ke",
            "bind P = K",
            "run start -1",
        ] {
            let e = feed.clone().feed(late).unwrap_err();
            assert_eq!(e.line, 3, "{late}");
        }
        // Actions keep flowing after a rejected line was *not* applied.
        assert!(matches!(
            feed.feed("newkey A K3").unwrap(),
            FeedOutcome::Event { time: 1 }
        ));
    }

    #[test]
    fn streaming_feed_requires_declarations_before_actions() {
        let mut feed = TraceFeed::new();
        let e = feed.feed("newkey A K").unwrap_err();
        assert!(e.message.contains("no principals"));
        assert!(feed.try_build().is_none());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_trace("run start x\nprincipal A keys K\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e2 = parse_trace("run start 0\nprincipal A keys K\nfrobnicate\n").unwrap_err();
        assert_eq!(e2.line, 3);
    }

    #[test]
    fn bare_action_keyword_is_an_error_not_a_panic() {
        let e = parse_trace("run start 0\nprincipal A keys K\nsend\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("takes arguments"));
    }

    #[test]
    fn principals_after_actions_rejected() {
        let bad = "run start 0\nprincipal A keys K\nnewkey A K2\nprincipal B keys K\n";
        assert!(parse_trace(bad).is_err());
    }
}
