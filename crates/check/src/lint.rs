//! Hand-rolled workspace lint (no external dependencies, no syn).
//!
//! Seven rules guard the determinism contract of the simulation:
//!
//! * `wallclock-in-sim` — no `std::time::Instant` / `SystemTime` in the
//!   simulation and protocol crates (`sim`, `net`, `mpi`, `core`, `nas`).
//!   Wall-clock reads there would leak host timing into virtual-time
//!   decisions. The bench harness measures real elapsed time and is
//!   exempt.
//! * `hashmap-order` — no iteration over a `HashMap` feeding ordered
//!   output. `HashMap` iteration order is randomized per process; it may
//!   only be iterated into an order-insensitive sink (`sum`, `count`,
//!   `any`, `all`, …) or followed by an explicit sort within a few lines.
//! * `core-unwrap` — no `.unwrap()` in `crates/core/src`: protocol code
//!   must carry an explanation (`expect`) or handle the `None`/`Err`.
//! * `lane-audit` — cross-file: every `EventKind` variant in
//!   `crates/sim/src/event.rs` must appear at a schedule site that
//!   assigns an explicit tiebreak lane (a 3-argument `EventQueue::push`
//!   whose lane argument is not `None`), so no event class can silently
//!   reorder under the race detector's seeded schedules. Network-fault
//!   transitions are plain `Call`s; what keeps each of them laned is
//!   `Sim::schedule_link_fault`'s `lane: u64` parameter, which cannot be
//!   `None`. The same rule
//!   pins the seeded tie order to `schedule.rs`: no other sim-crate source
//!   may mention `splitmix64`, so the only seeded order is
//!   `SeededPolicy`'s, chosen among the lane fronts the kernel offers. A
//!   further cross-file part confines the event *push path*:
//!   `Key { .. }` construction, `arena.insert(`, and `tier.push_back(` may
//!   appear only in `event.rs` (plus the slab's own file), so no caller
//!   can mint keys or slots that bypass the lane stored with the payload,
//!   which the schedule policies choose by.
//! * `env-registry` — no `std::env::var`/`var_os` read under `crates/`.
//!   An environment read is an invisible knob on a run; the workspace
//!   reads none, so every behaviour is chosen by a flag or a spec field.
//! * `sim-audit` — the event-kernel memory machinery
//!   (`crates/sim/src/arena.rs`, `event.rs`) must contain no `unsafe`
//!   and no `.unwrap()` outside its test module: the slab recycles slots
//!   and the queue hands them out by key, and both must fail loudly with
//!   `expect` invariant messages, never via unchecked access.
//! * `single-threaded-sim` — no `Mutex`, `RwLock`, `Condvar`, `Atomic*`,
//!   `Arc` or `std::thread` in `crates/sim/src` outside its test modules.
//!   A `Sim` runs on one thread from spawn to teardown; its handles are
//!   `Rc`/`RefCell`/`Cell`, and a lock or atomic on the event path is pure
//!   overhead. Parallel sweeps run one whole `Sim` per worker thread.
//!
//! Escape hatch: a `lint:allow(<rule>)` comment on the offending line or
//! the line above suppresses the finding.
//!
//! The scanner strips line comments and string literals before matching,
//! so rule needles inside doc comments or message strings don't trip it.

use std::path::Path;

/// Rule id: wall-clock reads in simulation crates.
pub const RULE_WALLCLOCK: &str = "wallclock-in-sim";
/// Rule id: HashMap iteration feeding ordered output.
pub const RULE_HASHMAP_ORDER: &str = "hashmap-order";
/// Rule id: `.unwrap()` in `crates/core`.
pub const RULE_CORE_UNWRAP: &str = "core-unwrap";
/// Rule id: `EventKind` variant never scheduled on a tiebreak lane.
pub const RULE_LANE_AUDIT: &str = "lane-audit";
/// Rule id: environment read.
pub const RULE_ENV_REGISTRY: &str = "env-registry";
/// Rule id: `unsafe` / bare `unwrap` in the kernel memory machinery.
pub const RULE_SIM_AUDIT: &str = "sim-audit";
/// Rule id: thread-safe synchronization in the single-threaded kernel.
pub const RULE_SINGLE_THREADED: &str = "single-threaded-sim";

/// Crates whose `src/` must not read the wall clock.
const WALLCLOCK_CRATES: &[&str] = &["sim", "net", "mpi", "core", "nas"];

/// Files audited by the `sim-audit` rule. The checkpoint store rides
/// along with the kernel memory files: replica lookups must surface
/// typed `StoreError`s, never panic on a missing or damaged slot.
const SIM_AUDIT_FILES: &[&str] = &[
    "crates/sim/src/arena.rs",
    "crates/sim/src/event.rs",
    "crates/sim/src/process.rs",
    "crates/core/src/server.rs",
];

/// Thread-safe primitives banned from `crates/sim/src` by the
/// `single-threaded-sim` rule, matched as whole identifiers. `Atomic` also
/// matches as a prefix (`AtomicBool`, `AtomicU64`, …).
const THREADED_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "Arc"];

/// The first `single-threaded-sim` needle on a scrubbed line, if any.
fn threaded_primitive(scrubbed: &str) -> Option<&'static str> {
    if let Some(word) = THREADED_PRIMITIVES
        .iter()
        .find(|w| contains_word(scrubbed, w))
    {
        return Some(word);
    }
    if scrubbed.contains("std::thread") {
        return Some("std::thread");
    }
    let mut from = 0;
    while let Some(at) = scrubbed[from..].find("Atomic") {
        let abs = from + at;
        if !scrubbed[..abs]
            .chars()
            .next_back()
            .is_some_and(is_ident_char)
        {
            return Some("Atomic*");
        }
        from = abs + "Atomic".len();
    }
    None
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintHit {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier.
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for LintHit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Strip string literals and `//` comments from one source line, keeping
/// byte positions stable where possible (stripped spans become spaces).
fn scrub(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut in_char_escape = false;
    while let Some(c) = chars.next() {
        if in_str {
            if in_char_escape {
                in_char_escape = false;
            } else if c == '\\' {
                in_char_escape = true;
            } else if c == '"' {
                in_str = false;
            }
            out.push(' ');
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(' ');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier a `HashMap` declaration binds, if recognizable:
/// `name: HashMap<...>` (field or typed let) or `name = HashMap::new()`.
fn hashmap_binding(scrubbed: &str) -> Option<String> {
    let at = scrubbed.find("HashMap")?;
    let before = scrubbed[..at].trim_end();
    let before = before
        .strip_suffix(':')
        .or_else(|| before.strip_suffix('='))
        .map(str::trim_end)?;
    let name: String = before
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

/// Iteration methods whose order reaches the caller.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain()",
];

/// Sinks that collapse iteration order on the same line.
const ORDER_FREE_SINKS: &[&str] = &[
    ".sum()", ".sum::", ".count()", ".any(", ".all(", ".min()", ".max()", ".len()", ".fold(0",
];

/// How far (in lines) a sort may follow an iteration to sanction it.
const SORT_WINDOW: usize = 8;

fn allowed(lines: &[&str], i: usize, rule: &str) -> bool {
    let marker = format!("lint:allow({rule})");
    lines[i].contains(&marker) || (i > 0 && lines[i - 1].contains(&marker))
}

/// Lint one file's text. `relpath` is the workspace-relative path (it
/// selects which rules apply).
pub fn lint_source(relpath: &str, text: &str) -> Vec<LintHit> {
    let mut hits = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    let scrubbed: Vec<String> = lines.iter().map(|l| scrub(l)).collect();
    let norm = relpath.replace('\\', "/");

    let in_wallclock_scope = WALLCLOCK_CRATES
        .iter()
        .any(|c| norm.starts_with(&format!("crates/{c}/src/")));
    let in_core_src = norm.starts_with("crates/core/src/");
    let in_sim_src = norm.starts_with("crates/sim/src/");
    let in_sim_audit = SIM_AUDIT_FILES.contains(&norm.as_str());
    // The sim-audit unwrap ban and the single-threaded rule cover
    // production code only; `#[cfg(test)]` starts the file's test module
    // and ends the audited region.
    let test_start = scrubbed
        .iter()
        .position(|s| s.contains("#[cfg(test)]"))
        .unwrap_or(scrubbed.len());

    // Pass 1: collect HashMap-typed bindings declared in this file.
    let mut map_names: Vec<String> = Vec::new();
    for s in &scrubbed {
        if let Some(name) = hashmap_binding(s) {
            if !map_names.contains(&name) {
                map_names.push(name);
            }
        }
    }

    for (i, s) in scrubbed.iter().enumerate() {
        let lineno = i + 1;
        if in_wallclock_scope {
            for needle in [
                "std::time::Instant",
                "std::time::SystemTime",
                "Instant::now",
                "SystemTime::now",
            ] {
                if s.contains(needle) && !allowed(&lines, i, RULE_WALLCLOCK) {
                    hits.push(LintHit {
                        file: norm.clone(),
                        line: lineno,
                        rule: RULE_WALLCLOCK,
                        msg: format!(
                            "wall-clock read `{needle}` in a simulation crate \
                             (virtual time only)"
                        ),
                    });
                    break;
                }
            }
        }
        if in_core_src && s.contains(".unwrap()") && !allowed(&lines, i, RULE_CORE_UNWRAP) {
            hits.push(LintHit {
                file: norm.clone(),
                line: lineno,
                rule: RULE_CORE_UNWRAP,
                msg: "`.unwrap()` in protocol code: use `expect` with an \
                      invariant message or handle the case"
                    .to_string(),
            });
        }
        if in_sim_audit && !allowed(&lines, i, RULE_SIM_AUDIT) {
            if contains_word(s, "unsafe") {
                hits.push(LintHit {
                    file: norm.clone(),
                    line: lineno,
                    rule: RULE_SIM_AUDIT,
                    msg: "`unsafe` in the kernel memory machinery: the slab and \
                          event queue stay entirely in safe Rust"
                        .to_string(),
                });
            }
            if i < test_start && s.contains(".unwrap()") {
                hits.push(LintHit {
                    file: norm.clone(),
                    line: lineno,
                    rule: RULE_SIM_AUDIT,
                    msg: "`.unwrap()` in slot/key bookkeeping: recycled slots \
                          and re-bucketed keys must fail with an `expect` \
                          invariant message"
                        .to_string(),
                });
            }
        }
        if in_sim_src && i < test_start && !allowed(&lines, i, RULE_SINGLE_THREADED) {
            if let Some(needle) = threaded_primitive(s) {
                hits.push(LintHit {
                    file: norm.clone(),
                    line: lineno,
                    rule: RULE_SINGLE_THREADED,
                    msg: format!(
                        "`{needle}` in the simulation kernel: a `Sim` is \
                         single-threaded (use `Rc`, `RefCell` or `Cell`)"
                    ),
                });
            }
        }
        for name in &map_names {
            let Some(call) = ITER_METHODS
                .iter()
                .find(|m| contains_member_call(s, name, m))
            else {
                continue;
            };
            let order_free = ORDER_FREE_SINKS.iter().any(|sink| s.contains(sink));
            let sorted_soon = scrubbed[i..scrubbed.len().min(i + SORT_WINDOW)]
                .iter()
                .any(|l| l.contains("sort"));
            if !order_free && !sorted_soon && !allowed(&lines, i, RULE_HASHMAP_ORDER) {
                hits.push(LintHit {
                    file: norm.clone(),
                    line: lineno,
                    rule: RULE_HASHMAP_ORDER,
                    msg: format!(
                        "`{name}{call}` iterates a HashMap in arbitrary order; \
                         sort the result, use an order-free sink, or switch to BTreeMap"
                    ),
                });
            }
        }
    }
    hits
}

/// `true` if `line` contains `word` delimited by non-identifier characters.
fn contains_word(line: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(at) = line[from..].find(word) {
        let abs = from + at;
        let pre = line[..abs].chars().next_back().is_some_and(is_ident_char);
        let post = line[abs + word.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if !pre && !post {
            return true;
        }
        from = abs + word.len();
    }
    false
}

/// Cross-file `env-registry` rule over every workspace source: each
/// `env::var`/`env::var_os` read is a finding.
pub fn env_registry_hits(sources: &[(String, String)]) -> Vec<LintHit> {
    let mut hits = Vec::new();
    for (path, text) in sources {
        let norm = path.replace('\\', "/");
        let lines: Vec<&str> = text.lines().collect();
        for (i, raw) in lines.iter().enumerate() {
            if scrub(raw).contains("env::var") && !allowed(&lines, i, RULE_ENV_REGISTRY) {
                hits.push(LintHit {
                    file: norm.clone(),
                    line: i + 1,
                    rule: RULE_ENV_REGISTRY,
                    msg: "environment read: the workspace takes no environment \
                          toggles; choose behaviour with a flag or a spec field"
                        .to_string(),
                });
            }
        }
    }
    hits
}

/// `true` if `line` contains `name<method>` with `name` not preceded by an
/// identifier character (so `pair_last.iter()` doesn't match `last`).
fn contains_member_call(line: &str, name: &str, method: &str) -> bool {
    let needle = format!("{name}{method}");
    let mut from = 0;
    while let Some(at) = line[from..].find(&needle) {
        let abs = from + at;
        let preceded = line[..abs].chars().next_back().is_some_and(is_ident_char);
        if !preceded {
            return true;
        }
        from = abs + 1;
    }
    false
}

/// `EventKind` variant names and their 1-based line numbers, parsed from
/// the text of `event.rs`.
fn event_kind_variants(text: &str) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut in_enum = false;
    for (i, line) in text.lines().enumerate() {
        let s = scrub(line);
        let t = s.trim();
        if !in_enum {
            if t.contains("enum EventKind") {
                in_enum = true;
                depth = t.matches('{').count();
            }
            continue;
        }
        if depth == 1 && t.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            let name: String = t.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() {
                variants.push((name, i + 1));
            }
        }
        depth += t.matches('{').count();
        let closes = t.matches('}').count();
        if closes >= depth {
            break;
        }
        depth -= closes;
    }
    variants
}

/// Three-argument `.push(` call sites in comment/string-scrubbed source
/// joined with newlines: `(line, [time, lane, kind])`. Arguments are
/// split at top-level commas with paren/bracket/brace balancing, so
/// multi-line sites and nested closures parse correctly.
fn push_sites(joined: &str) -> Vec<(usize, Vec<String>)> {
    const NEEDLE: &str = ".push(";
    let mut sites = Vec::new();
    let mut search = 0;
    while let Some(found) = joined[search..].find(NEEDLE) {
        let abs = search + found;
        let lineno = joined[..abs].matches('\n').count() + 1;
        let body = &joined[abs + NEEDLE.len()..];
        let mut depth = 1usize;
        let mut args = vec![String::new()];
        let mut consumed = body.len();
        for (off, c) in body.char_indices() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        consumed = off;
                        break;
                    }
                }
                ',' if depth == 1 => {
                    args.push(String::new());
                    continue;
                }
                _ => {}
            }
            args.last_mut().expect("args never empty").push(c);
        }
        if args.last().is_some_and(|a| a.trim().is_empty()) && args.len() > 1 {
            args.pop(); // trailing comma in a multi-line call
        }
        if args.len() == 3 {
            sites.push((lineno, args));
        }
        search = abs + NEEDLE.len() + consumed;
    }
    sites
}

/// Cross-file lane audit (rule `lane-audit`) over `(relpath, text)`
/// sources from the sim crate. Every `EventKind` variant must be reachable
/// from a lane-assigning schedule site — a 3-argument `EventQueue::push`
/// whose lane argument is not the literal `None` and whose kind argument
/// constructs that variant. A variant only ever pushed laneless would be
/// its own candidate at every tied instant, so its same-time ordering
/// would drift under the race detector's seeds instead of staying pinned
/// to its process lane.
pub fn lane_audit_sources(sources: &[(String, String)]) -> Vec<LintHit> {
    let Some((event_path, event_text)) = sources
        .iter()
        .find(|(p, _)| p.replace('\\', "/").ends_with("src/event.rs"))
    else {
        return Vec::new();
    };
    let variants = event_kind_variants(event_text);
    let mut covered: Vec<bool> = vec![false; variants.len()];
    for (_, text) in sources {
        let joined: Vec<String> = text.lines().map(scrub).collect();
        for (_, args) in push_sites(&joined.join("\n")) {
            let lane = args[1].trim();
            if lane.is_empty() || lane == "None" {
                continue;
            }
            let kind = args[2].trim_start();
            for (i, (v, _)) in variants.iter().enumerate() {
                let ctor = format!("EventKind::{v}");
                if kind.starts_with(&ctor)
                    && !kind[ctor.len()..].chars().next().is_some_and(is_ident_char)
                {
                    covered[i] = true;
                }
            }
        }
    }
    let event_lines: Vec<&str> = event_text.lines().collect();
    let mut hits: Vec<LintHit> = variants
        .iter()
        .zip(&covered)
        .filter(|&((_, line), &cov)| !cov && !allowed(&event_lines, line - 1, RULE_LANE_AUDIT))
        .map(|((v, line), _)| LintHit {
            file: event_path.replace('\\', "/"),
            line: *line,
            rule: RULE_LANE_AUDIT,
            msg: format!(
                "`EventKind::{v}` is never pushed with an explicit tiebreak \
                 lane; laneless events reorder under seeded schedules"
            ),
        })
        .collect();
    hits.extend(seeded_order_confinement(sources));
    hits.extend(push_confinement(sources));
    hits
}

/// Third half of the lane audit: the event *push path* is confined.
/// `Key { .. }` construction, `arena.insert(` (slot allocation), and
/// `tier.push_back(` (entry into the same-instant tier) may appear only in
/// `event.rs` — plus `arena.rs`, whose internals and tests legitimately
/// touch the slab. Everything else must go through `EventQueue::push`,
/// which stores the lane with the payload for the schedule policies to
/// choose by, and files the key behind every earlier `seq`; a rogue push
/// site would create events without a lane or out of the tier's order.
fn push_confinement(sources: &[(String, String)]) -> Vec<LintHit> {
    const CONFINED: &[(&str, &[&str], &str)] = &[
        (
            "Key {",
            &["src/event.rs"],
            "`Key` construction outside the queue: events must enter through \
             `EventQueue::push` so their lane is stored with the payload",
        ),
        (
            "arena.insert(",
            &["src/event.rs", "src/arena.rs"],
            "arena slot allocation outside the queue: a slot without a key \
             leaks and is invisible to exploration",
        ),
        (
            "tier.push_back(",
            &["src/event.rs"],
            "raw tier push outside the queue: bypasses the lane stored with \
             the payload and the tier's `seq` order (use `EventQueue::push`)",
        ),
        (
            ".as_mut().poll(",
            &["src/kernel.rs"],
            "coroutine stepping outside the kernel drive loop: a process \
             state machine may only be polled by `drive_coro`, where the \
             dispatched wake and its lane are recorded",
        ),
    ];
    let mut hits = Vec::new();
    for (path, text) in sources {
        let norm = path.replace('\\', "/");
        let lines: Vec<&str> = text.lines().collect();
        for (i, raw) in lines.iter().enumerate() {
            let s = scrub(raw);
            for (needle, allowed_in, msg) in CONFINED {
                if allowed_in.iter().any(|suffix| norm.ends_with(suffix)) {
                    continue;
                }
                let found = if let Some(rest) = needle.strip_suffix(" {") {
                    // Brace construction: match the bare type name too
                    // (`Key{`), but not longer identifiers (`WakeKey {`).
                    [format!("{rest} {{"), format!("{rest}{{")]
                        .iter()
                        .any(|n| contains_word_prefix(&s, rest, n))
                } else {
                    s.contains(needle)
                };
                if found && !allowed(&lines, i, RULE_LANE_AUDIT) {
                    hits.push(LintHit {
                        file: norm.clone(),
                        line: i + 1,
                        rule: RULE_LANE_AUDIT,
                        msg: (*msg).to_string(),
                    });
                }
            }
        }
    }
    hits
}

/// `true` if `line` contains `needle` where the leading `word` part is not
/// preceded by an identifier character.
fn contains_word_prefix(line: &str, word: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(at) = line[from..].find(needle) {
        let abs = from + at;
        let pre = line[..abs].chars().next_back().is_some_and(is_ident_char);
        if !pre {
            return true;
        }
        from = abs + word.len();
    }
    false
}

/// Second part of the lane audit: the seeded tie order (the `splitmix64`
/// mixer `SeededPolicy` hashes lanes with) must live in `schedule.rs` and
/// nowhere else in the sim crate. The queue orders by `(time, seq)` and
/// the kernel offers lane fronts to a policy; any other module hashing
/// lanes or keys would fork a second seeded order that bypasses the lane
/// fronts.
fn seeded_order_confinement(sources: &[(String, String)]) -> Vec<LintHit> {
    let mut hits = Vec::new();
    for (path, text) in sources {
        let norm = path.replace('\\', "/");
        if norm.ends_with("src/schedule.rs") {
            continue;
        }
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let s = scrub(line);
            let Some(at) = s.find("splitmix64") else {
                continue;
            };
            let pre = s[..at].chars().next_back().is_some_and(is_ident_char);
            let post = s[at + "splitmix64".len()..]
                .chars()
                .next()
                .is_some_and(is_ident_char);
            if !pre && !post && !allowed(&lines, i, RULE_LANE_AUDIT) {
                hits.push(LintHit {
                    file: norm.clone(),
                    line: i + 1,
                    rule: RULE_LANE_AUDIT,
                    msg: "seeded tie order (`splitmix64`) outside schedule.rs: \
                          seeded reordering belongs to `SeededPolicy`"
                        .to_string(),
                });
            }
        }
    }
    hits
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lint every `.rs` file under `<root>/crates`, returning all findings.
/// Includes the cross-file [`lane_audit_sources`] pass over the sim crate.
pub fn run_lint(root: &Path) -> Vec<LintHit> {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let mut hits = Vec::new();
    let mut sim_sources: Vec<(String, String)> = Vec::new();
    let mut all_sources: Vec<(String, String)> = Vec::new();
    for path in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        hits.extend(lint_source(&rel, &text));
        if rel.replace('\\', "/").starts_with("crates/sim/src/") {
            sim_sources.push((rel.clone(), text.clone()));
        }
        all_sources.push((rel, text));
    }
    hits.extend(lane_audit_sources(&sim_sources));
    hits.extend(env_registry_hits(&all_sources));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wallclock_flagged_only_in_sim_crates() {
        let src = "use std::time::Instant;\n";
        assert_eq!(lint_source("crates/sim/src/kernel.rs", src).len(), 1);
        assert_eq!(lint_source("crates/core/src/vcl.rs", src).len(), 1);
        assert!(lint_source("crates/bench/src/sweep.rs", src).is_empty());
        assert!(lint_source("crates/sim/tests/e2e.rs", src).is_empty());
    }

    #[test]
    fn wallclock_in_comments_and_strings_is_ignored() {
        let src = "// std::time::Instant is banned here\nlet s = \"Instant::now\";\n";
        assert!(lint_source("crates/sim/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn core_unwrap_flagged_with_allow_escape() {
        let src = "let x = y.unwrap();\n";
        let hits = lint_source("crates/core/src/pcl.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_CORE_UNWRAP);
        assert!(lint_source("crates/mpi/src/runtime.rs", src).is_empty());
        let allowed = "// lint:allow(core-unwrap)\nlet x = y.unwrap();\n";
        assert!(lint_source("crates/core/src/pcl.rs", allowed).is_empty());
        // `unwrap_or` is not `unwrap`.
        assert!(lint_source("crates/core/src/pcl.rs", "y.unwrap_or(0);\n").is_empty());
    }

    #[test]
    fn hashmap_iteration_rules() {
        let decl = "    requests: HashMap<u64, Req>,\n";
        let bad = format!("{decl}    for r in requests.values() {{ out.push(r); }}\n");
        let hits = lint_source("crates/mpi/src/runtime.rs", &bad);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_HASHMAP_ORDER);

        let summed = format!("{decl}    let n: u64 = requests.values().map(|r| r.n).sum();\n");
        assert!(lint_source("crates/mpi/src/runtime.rs", &summed).is_empty());

        let sorted =
            format!("{decl}    let mut v: Vec<_> = requests.values().collect();\n    v.sort();\n");
        assert!(lint_source("crates/mpi/src/runtime.rs", &sorted).is_empty());

        // An unrelated identifier sharing a suffix does not match.
        let other = format!("{decl}    best_requests.iter();\n");
        assert!(lint_source("crates/mpi/src/runtime.rs", &other).is_empty());
    }

    const FAKE_EVENT_RS: &str = "\
pub(crate) enum EventKind {
    /// Run a closure.
    Call(Box<dyn FnOnce() + Send>),
    /// Wake a process.
    Resume(Pid, WakeKind),
}
";

    fn sources(kernel: &str) -> Vec<(String, String)> {
        vec![
            ("crates/sim/src/event.rs".into(), FAKE_EVENT_RS.into()),
            ("crates/sim/src/kernel.rs".into(), kernel.into()),
        ]
    }

    #[test]
    fn lane_audit_passes_when_every_variant_has_a_laned_push() {
        let kernel = "
    queue.push(at, Some(pid.lane()), EventKind::Resume(pid, kind));
    queue.push(
        at,
        Some(pid.lane()),
        EventKind::Call(Box::new(move || { nested(parens, here); })),
    );
";
        assert!(lane_audit_sources(&sources(kernel)).is_empty());
    }

    #[test]
    fn lane_audit_flags_variant_only_pushed_laneless() {
        let kernel = "
    queue.push(at, Some(pid.lane()), EventKind::Resume(pid, kind));
    queue.push(at, None, EventKind::Call(Box::new(f)));
";
        let hits = lane_audit_sources(&sources(kernel));
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_LANE_AUDIT);
        assert_eq!(hits[0].file, "crates/sim/src/event.rs");
        assert!(hits[0].msg.contains("EventKind::Call"));
        // A named lane variable (not the literal `None`) counts as laned.
        let named = "
    queue.push(at, Some(pid.lane()), EventKind::Resume(pid, kind));
    queue.push(at.max(now), lane, EventKind::Call(Box::new(f)));
";
        assert!(lane_audit_sources(&sources(named)).is_empty());
    }

    #[test]
    fn lane_audit_ignores_vec_pushes_and_comments() {
        let kernel = "
    queue.push(at, Some(pid.lane()), EventKind::Resume(pid, kind));
    queue.push(at, Some(0), EventKind::Call(Box::new(f)));
    out.push(x); // one-arg Vec push is not a schedule site
    // queue.push(at, None, EventKind::Call(..)) — commented out
";
        assert!(lane_audit_sources(&sources(kernel)).is_empty());
    }

    #[test]
    fn lane_audit_variant_parse_and_allow_escape() {
        let vs = event_kind_variants(FAKE_EVENT_RS);
        assert_eq!(vs, vec![("Call".to_string(), 3), ("Resume".to_string(), 5)]);
        let allowed_src =
            FAKE_EVENT_RS.replace("    /// Run a closure.", "    // lint:allow(lane-audit)");
        let srcs = vec![
            ("crates/sim/src/event.rs".to_string(), allowed_src),
            (
                "crates/sim/src/kernel.rs".to_string(),
                "queue.push(at, Some(1), EventKind::Resume(pid, kind));".to_string(),
            ),
        ];
        assert!(lane_audit_sources(&srcs).is_empty());
    }

    #[test]
    fn seeded_order_hash_confined_to_schedule_rs() {
        let mut srcs = sources(
            "queue.push(at, Some(1), EventKind::Resume(pid, kind));\n\
             queue.push(at, Some(2), EventKind::Call(Box::new(f)));\n",
        );
        // schedule.rs, home of `SeededPolicy`, may hash lanes.
        srcs.push((
            "crates/sim/src/schedule.rs".into(),
            "let (h, _) = (splitmix64(&mut state), c.seq);\n".into(),
        ));
        assert!(lane_audit_sources(&srcs).is_empty());
        // The queue, which orders by `(time, seq)` alone, and the kernel,
        // which offers lane fronts to the policy, may not...
        for (i, file) in [
            (0, "crates/sim/src/event.rs"),
            (1, "crates/sim/src/kernel.rs"),
        ] {
            let mut planted = srcs.clone();
            planted[i]
                .1
                .push_str("let t = splitmix64(&mut seed ^ lane);\n");
            let hits = lane_audit_sources(&planted);
            assert_eq!(hits.len(), 1, "{hits:?}");
            assert_eq!(hits[0].rule, RULE_LANE_AUDIT);
            assert_eq!(hits[0].file, file);
        }
        // ...unless escaped, mentioned in a comment, or a longer identifier.
        srcs[1]
            .1
            .push_str("// splitmix64 is documented here only\nlet x = splitmix64_variant(y);\n");
        assert!(lane_audit_sources(&srcs).is_empty());
        srcs[1]
            .1
            .push_str("// lint:allow(lane-audit)\nlet t = splitmix64(seed);\n");
        assert!(lane_audit_sources(&srcs).is_empty());
    }

    #[test]
    fn push_path_confined_to_event_rs() {
        let mut srcs = sources(
            "queue.push(at, Some(1), EventKind::Resume(pid, kind));\n\
             queue.push(at, Some(2), EventKind::Call(Box::new(f)));\n",
        );
        // The owning files may construct keys, insert slots, and push raw.
        srcs[0].1.push_str(
            "let k = Key { time, seq, slot };\nself.arena.insert(ev);\nself.tier.push_back(k);\n",
        );
        srcs.push((
            "crates/sim/src/arena.rs".into(),
            "let slot = self.arena.insert(ev);\n".into(),
        ));
        assert!(lane_audit_sources(&srcs).is_empty());
        // Any other sim source minting a Key is flagged...
        srcs.push((
            "crates/sim/src/kernel2.rs".into(),
            "let k = Key{ time, seq: 7, slot };\n".into(),
        ));
        let hits = lane_audit_sources(&srcs);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_LANE_AUDIT);
        assert_eq!(hits[0].file, "crates/sim/src/kernel2.rs");
        // ...as are raw arena inserts and tier pushes elsewhere.
        srcs.last_mut().unwrap().1 = "self.arena.insert(ev);\nself.tier.push_back(k);\n".into();
        let hits = lane_audit_sources(&srcs);
        assert_eq!(hits.len(), 2, "{hits:?}");
        // Longer identifiers, comments, and the escape hatch don't trip it.
        srcs.last_mut().unwrap().1 = "let w = WakeKey { pid };\n\
             // a Key { .. } mentioned in a comment\n\
             // lint:allow(lane-audit)\nlet k = Key { time, seq, slot };\n"
            .into();
        assert!(lane_audit_sources(&srcs).is_empty());
    }

    #[test]
    fn env_registry_rules() {
        // The deleted cache toggle, planted back where it lived: flagged.
        let planted = vec![(
            "crates/bench/src/sweep.rs".to_string(),
            "if std::env::var_os(\"FTMPI_NO_CACHE\").is_some() {\n".to_string(),
        )];
        let hits = env_registry_hits(&planted);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_ENV_REGISTRY);
        assert_eq!(
            (hits[0].file.as_str(), hits[0].line),
            ("crates/bench/src/sweep.rs", 1)
        );

        // Any name, `var` or `var_os`.
        let anon = vec![(
            "crates/sim/src/kernel.rs".to_string(),
            "let x = std::env::var(\"HOME\");\n".to_string(),
        )];
        assert_eq!(env_registry_hits(&anon).len(), 1);
        // ...unless escaped; mentions in comments and strings are not reads.
        let quiet = vec![(
            "crates/bench/src/sweep.rs".to_string(),
            "// lint:allow(env-registry)\nlet home = std::env::var_os(\"HOME\");\n\
             // std::env::var is banned\nlet s = \"env::var\";\n"
                .to_string(),
        )];
        assert!(env_registry_hits(&quiet).is_empty());
    }

    #[test]
    fn sim_audit_unsafe_and_unwrap() {
        let src = "let x = slots.get(i).unwrap();\n";
        // Only the audited files are in scope.
        assert!(lint_source("crates/sim/src/kernel.rs", src).is_empty());
        let hits = lint_source("crates/sim/src/arena.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_SIM_AUDIT);

        // Unwraps inside the test module are fine; `unsafe` never is.
        let tested = "fn get(&self) {}\n#[cfg(test)]\nmod tests {\n    \
             fn t() { x.unwrap(); }\n}\n";
        assert!(lint_source("crates/sim/src/event.rs", tested).is_empty());
        let unsafe_in_tests =
            "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { ptr.read() } }\n}\n";
        let hits = lint_source("crates/sim/src/event.rs", unsafe_in_tests);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].msg.contains("unsafe"));

        // Comments, longer identifiers, and the escape hatch are ignored.
        let benign = "// unsafe is banned here\n#![forbid(unsafe_code)]\n\
             let y = x.unwrap_or(0);\n";
        assert!(lint_source("crates/sim/src/arena.rs", benign).is_empty());
        let escaped = "// lint:allow(sim-audit)\nlet x = y.unwrap();\n";
        assert!(lint_source("crates/sim/src/arena.rs", escaped).is_empty());
    }

    #[test]
    fn single_threaded_sim_rejects_thread_safe_primitives() {
        for src in [
            "use std::sync::Arc;\n",
            "let m: Mutex<u8> = Mutex::new(0);\n",
            "lock: RwLock<Vec<u8>>,\n",
            "cv: Condvar,\n",
            "static N: AtomicU64 = AtomicU64::new(0);\n",
            "let h = std::thread::spawn(f);\n",
        ] {
            let hits = lint_source("crates/sim/src/kernel.rs", src);
            assert_eq!(hits.len(), 1, "{src}: {hits:?}");
            assert_eq!(hits[0].rule, RULE_SINGLE_THREADED);
        }
        // Only the kernel crate's sources are in scope.
        let arc = "use std::sync::Arc;\n";
        assert!(lint_source("crates/bench/src/sweep.rs", arc).is_empty());
        assert!(lint_source("crates/sim/tests/kernel.rs", arc).is_empty());
        // Test modules, comments, strings, longer identifiers, single-
        // threaded cells and the escape hatch pass.
        let tested = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Arc;\n}\n";
        assert!(lint_source("crates/sim/src/kernel.rs", tested).is_empty());
        let benign = "// an Arc<Mutex<_>> would lock here\nlet s = \"Arc\";\n\
             let w = Rc::new(RefCell::new(ArcLength(1)));\nlet f = NonAtomicFlag;\n";
        assert!(lint_source("crates/sim/src/kernel.rs", benign).is_empty());
        let escaped = "// lint:allow(single-threaded-sim)\nuse std::sync::Arc;\n";
        assert!(lint_source("crates/sim/src/kernel.rs", escaped).is_empty());
    }

    #[test]
    fn hashmap_binding_extraction() {
        assert_eq!(
            hashmap_binding("    pair_last: HashMap<(NodeId, NodeId), SimTime>,"),
            Some("pair_last".to_string())
        );
        assert_eq!(
            hashmap_binding("let mut m = HashMap::new();"),
            Some("m".to_string())
        );
        assert_eq!(hashmap_binding("use std::collections::HashMap;"), None);
    }

    /// Maps on the event path carry a fixed hasher as a third type
    /// parameter. Their iteration order no longer varies between
    /// processes — it is the same wrong order every run — so the lint is
    /// the only guard left, and it must still see them.
    #[test]
    fn hashmap_order_sees_maps_with_a_fixed_hasher() {
        assert_eq!(
            hashmap_binding("    pub(crate) requests: HashMap<u64, ReqState, FxBuildHasher>,"),
            Some("requests".to_string())
        );
        let src = "    requests: HashMap<u64, Req, H>,\n    \
                   for r in requests.values() { out.push(r); }\n";
        let hits = lint_source("crates/mpi/src/runtime.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_HASHMAP_ORDER);
        assert_eq!(hits[0].line, 2);
    }
}
