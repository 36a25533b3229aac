//! Workspace module resolver and cross-crate call graph.
//!
//! Nodes are every function and `macro_rules!` body the [`crate::parser`]
//! found in every file; edges come from call and macro events resolved
//! against a workspace-wide symbol index. A path call resolves through the
//! file's imports and a suffix match on the callee's logical path. A
//! method call resolves on its receiver's type wherever the source spells
//! it ([`Ty`]): a named type reaches its own methods (or the default
//! bodies of the traits it implements); a `dyn`/`impl`/bounded-generic
//! receiver reaches every impl of the trait plus the trait's default body;
//! a non-workspace type — a slice, `Vec`, the result of a std method in a
//! chain — reaches nothing. Only a receiver whose type is written nowhere
//! falls back to every workspace method of that name: for a
//! panic-reachability analysis a false edge costs a justified suppression,
//! while a missed edge silently hides a real crash path. DESIGN.md §7.

use crate::parser::{CallEvent, FnDef, Recv, Root, Step, Ty};
use crate::{Diagnostic, FileCtx};
use std::collections::{BTreeMap, BTreeSet};

/// Workspace rule id: panic sink reachable from a request-path root.
pub const TRANSITIVE_PANIC: &str = "transitive-panic-in-request-path";

/// One function (or macro) in the workspace graph.
pub struct Node {
    /// Index into the `FileCtx` slice the graph was built from.
    pub file: usize,
    /// Index into that file's `ast.fns`.
    pub fnx: usize,
    /// Crate directory name (`tensor`, `serving`, …), if under `crates/`.
    crate_dir: Option<String>,
    /// Module path within the crate: file modules + in-file `mod`s.
    modules: Vec<String>,
}

pub struct CallGraph<'w> {
    pub ctxs: &'w [FileCtx],
    pub nodes: Vec<Node>,
    /// Callees of each node, sorted and deduplicated.
    pub edges: Vec<Vec<usize>>,
}

/// Panic-sink macros. `assert!`-family is deliberately excluded: asserts
/// in deep kernels state invariants the test suite drives.
const SINK_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Derive (crate dir, module path) from a workspace-relative file path.
/// `crates/tensor/src/ops/simd.rs` → (`tensor`, `["ops","simd"]`).
fn file_modules(path: &str) -> (Option<String>, Vec<String>) {
    let segs: Vec<&str> = path.split('/').collect();
    let crate_dir = (segs.len() > 2 && segs[0] == "crates").then(|| segs[1].to_string());
    let mut mods = Vec::new();
    if let Some(srcpos) = segs.iter().position(|&s| s == "src") {
        for (k, s) in segs[srcpos + 1..].iter().enumerate() {
            let is_last = srcpos + 1 + k == segs.len() - 1;
            if is_last {
                let stem = s.strip_suffix(".rs").unwrap_or(s);
                if stem != "lib" && stem != "main" && stem != "mod" {
                    mods.push(stem.to_string());
                }
            } else if *s != "bin" {
                mods.push(s.to_string());
            }
        }
    }
    (crate_dir, mods)
}

/// Crate idents a `crates/<dir>` crate may be referred to by in code:
/// the dir itself and the `ratatouille_<dir>` package prefix.
fn crate_aliases(dir: &str) -> Vec<String> {
    if dir.starts_with("ratatouille") {
        vec![dir.to_string()]
    } else {
        vec![dir.to_string(), format!("ratatouille_{dir}")]
    }
}

/// Build the cross-crate call graph over already-lexed/parsed files.
pub fn build(ctxs: &[FileCtx]) -> CallGraph<'_> {
    let mut nodes = Vec::new();
    for (fi, ctx) in ctxs.iter().enumerate() {
        let (crate_dir, fmods) = file_modules(&ctx.path);
        for (fx, f) in ctx.ast.fns.iter().enumerate() {
            let mut modules = fmods.clone();
            modules.extend(f.module.iter().cloned());
            nodes.push(Node { file: fi, fnx: fx, crate_dir: crate_dir.clone(), modules });
        }
    }

    let mut g = Resolver {
        ctxs,
        nodes: &nodes,
        fns: BTreeMap::new(),
        macros: BTreeMap::new(),
        use_maps: Vec::new(),
        fields: BTreeMap::new(),
        by_field: BTreeMap::new(),
        types: BTreeSet::new(),
        impls: BTreeSet::new(),
    };
    for (ni, n) in nodes.iter().enumerate() {
        let f = &ctxs[n.file].ast.fns[n.fnx];
        let index = if f.is_macro { &mut g.macros } else { &mut g.fns };
        index.entry(f.name.as_str()).or_default().push(ni);
        if let Some(st) = f.self_type.as_deref() {
            g.types.insert(st);
            if let Some(tr) = f.trait_name.as_deref() {
                g.impls.insert((st, tr));
            }
        }
    }
    for ctx in ctxs {
        // Per-file import map: last path segment → full `use` path.
        let uses = ctx.ast.uses.iter().filter_map(|u| Some((u.last()?.as_str(), u)));
        g.use_maps.push(uses.collect());
        for (st, field, ty) in &ctx.ast.fields {
            g.types.insert(st);
            g.fields.insert((st, field), ty);
            g.by_field.entry(field).or_default().push(ty);
        }
    }

    let edges = nodes
        .iter()
        .enumerate()
        .map(|(ni, n)| {
            let f = &ctxs[n.file].ast.fns[n.fnx];
            let mut out: Vec<usize> = f.calls.iter().flat_map(|c| g.resolve(c, ni)).collect();
            for m in &f.macros {
                out.extend(g.macros.get(m.name()).into_iter().flatten());
            }
            out.retain(|&t| t != ni);
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();
    CallGraph { ctxs, nodes, edges }
}

struct Resolver<'w> {
    ctxs: &'w [FileCtx],
    nodes: &'w [Node],
    /// Name → fn nodes (free fns and methods alike).
    fns: BTreeMap<&'w str, Vec<usize>>,
    /// Name → `macro_rules!` nodes.
    macros: BTreeMap<&'w str, Vec<usize>>,
    use_maps: Vec<BTreeMap<&'w str, &'w Vec<String>>>,
    /// (struct, field) → the field's written type.
    fields: BTreeMap<(&'w str, &'w str), &'w Ty>,
    /// field → its written type in every struct that has it.
    by_field: BTreeMap<&'w str, Vec<&'w Ty>>,
    /// Every workspace type with a method or a named field (and every
    /// trait, which is its own methods' self type).
    types: BTreeSet<&'w str>,
    /// (self type, trait) for every method in an `impl Trait for Type`,
    /// plus (trait, trait) for every method declared in a trait.
    impls: BTreeSet<(&'w str, &'w str)>,
}

impl<'w> Resolver<'w> {
    fn fn_of(&self, ni: usize) -> &'w FnDef {
        let n = &self.nodes[ni];
        &self.ctxs[n.file].ast.fns[n.fnx]
    }

    /// All nodes a call event may land on.
    fn resolve(&self, c: &CallEvent, caller: usize) -> Vec<usize> {
        let n = &self.nodes[caller];
        let caller_fn = self.fn_of(caller);
        if let Some(r) = &c.recv {
            let tys = self.recv_tys(r, caller);
            return tys.iter().flat_map(|ty| self.methods(ty, c.name())).collect();
        }
        let mut segs: Vec<String> = c.path.clone();
        while segs.len() > 1
            && matches!(segs[0].as_str(), "crate" | "super" | "self" | "std" | "core" | "alloc")
        {
            // `std::…` paths can never be workspace fns; `crate::`/`self::`
            // prefixes are location noise the suffix match doesn't need.
            if matches!(segs[0].as_str(), "std" | "core" | "alloc") {
                return Vec::new();
            }
            segs.remove(0);
        }
        let name = segs.last().cloned().unwrap_or_default();
        if segs[0] == "Self" {
            let self_ty = caller_fn.self_type.clone().map_or(Ty::Unknown, Ty::Named);
            return self.methods(&self_ty, &name);
        }
        // Expand the head segment through this file's imports:
        // `par::scatter_mut` + `use ratatouille_tensor::par;` → full path.
        if let Some(full) = self.use_maps[n.file].get(segs[0].as_str()) {
            let mut expanded: Vec<String> = (*full).clone();
            expanded.extend(segs.drain(1..));
            segs = expanded;
        }
        let cands = self.fns.get(name.as_str()).into_iter().flatten().copied();
        if segs.len() == 1 {
            // Bare call. Uppercase names are tuple-struct/variant
            // constructors (`Some`, `Ok`, workspace newtypes) — not fns
            // we can panic inside.
            if name.chars().next().map_or(true, |ch| ch.is_uppercase()) || name == "drop" {
                return Vec::new();
            }
            // Same-file first, then same-crate; never cross-crate for an
            // unqualified name (it would have needed a `use` we'd have
            // seen, or a path).
            let free: Vec<usize> = cands.filter(|&t| self.fn_of(t).self_type.is_none()).collect();
            let same_file: Vec<usize> =
                free.iter().copied().filter(|&t| self.nodes[t].file == n.file).collect();
            if !same_file.is_empty() {
                return same_file;
            }
            return free
                .into_iter()
                .filter(|&t| self.nodes[t].crate_dir.is_some() && self.nodes[t].crate_dir == n.crate_dir)
                .collect();
        }
        // Qualified path: match candidates whose logical path ends with
        // the written segments (crate idents normalised via aliases).
        cands.filter(|&t| self.suffix_matches(t, &segs)).collect()
    }

    /// The types a method call's receiver may have.
    fn recv_tys(&self, r: &Recv, caller: usize) -> Vec<Ty> {
        let root = match &r.root {
            Root::Ty(ty) => ty.clone(),
            // A chain: a std method's result is no workspace type; a
            // workspace method's result type is not read.
            Root::Call(i) => match self.resolve(&self.fn_of(caller).calls[*i], caller).is_empty() {
                true => Ty::Named(String::new()),
                false => Ty::Unknown,
            },
        };
        r.steps.iter().fold(vec![root], |tys, step| tys.iter().flat_map(|ty| self.step(ty, step)).collect())
    }

    /// The types one field or index step from a value of type `ty` may have.
    fn step(&self, ty: &Ty, step: &Step) -> Vec<Ty> {
        match (ty, step) {
            (Ty::Seq(elem), Step::Index) => vec![(**elem).clone()],
            (Ty::Named(st), Step::Field(f)) => vec![match self.fields.get(&(st.as_str(), f.as_str())) {
                Some(&t) => t.clone(),
                None if self.types.contains(st.as_str()) => Ty::Unknown,
                None => Ty::Named(String::new()),
            }],
            // An untyped value's field: its type in every struct that has one.
            (Ty::Unknown, Step::Field(f)) => match self.by_field.get(f.as_str()) {
                Some(tys) => tys.iter().map(|&t| t.clone()).collect(),
                None => vec![Ty::Unknown],
            },
            _ => vec![Ty::Unknown],
        }
    }

    /// The methods named `name` that a receiver of type `ty` reaches.
    fn methods(&self, ty: &Ty, name: &str) -> Vec<usize> {
        let named = |keep: &dyn Fn(&FnDef) -> bool| -> Vec<usize> {
            let cands = self.fns.get(name).into_iter().flatten().copied();
            cands.filter(|&t| keep(self.fn_of(t))).collect()
        };
        let of_trait = |tr: &str| named(&|f| f.trait_name.as_deref() == Some(tr));
        match ty {
            Ty::Unknown => named(&|f| f.self_type.is_some()),
            Ty::Seq(_) => Vec::new(),
            Ty::Traits(traits) => traits.iter().flat_map(|tr| of_trait(tr)).collect(),
            Ty::Named(st) if self.impls.contains(&(st.as_str(), st.as_str())) => of_trait(st),
            Ty::Named(st) => {
                let own = named(&|f| f.self_type.as_deref() == Some(st.as_str()));
                if !own.is_empty() {
                    return own;
                }
                // a default body of a trait the type implements
                named(&|f| match (f.self_type.as_deref(), f.trait_name.as_deref()) {
                    (Some(s), Some(tr)) => s == tr && self.impls.contains(&(st.as_str(), tr)),
                    _ => false,
                })
            }
        }
    }

    /// Does candidate `t`'s logical path (`[crate] modules [SelfType] name`)
    /// end with the written path `segs`?
    fn suffix_matches(&self, t: usize, segs: &[String]) -> bool {
        let n = &self.nodes[t];
        let f = self.fn_of(t);
        let mut tail: Vec<String> = n.modules.clone();
        if let Some(st) = &f.self_type {
            tail.push(st.clone());
        }
        tail.push(f.name.clone());
        if ends_with(&tail, segs) {
            return true;
        }
        // …and with each crate alias prepended.
        n.crate_dir.as_deref().is_some_and(|d| {
            crate_aliases(d).into_iter().any(|a| {
                let full: Vec<String> = std::iter::once(a).chain(tail.iter().cloned()).collect();
                ends_with(&full, segs)
            })
        })
    }
}

fn ends_with(hay: &[String], needle: &[String]) -> bool {
    needle.len() <= hay.len() && hay[hay.len() - needle.len()..] == *needle
}

/// Request-path roots: every non-test fn of the serving crate (HTTP
/// handlers, the router, the engine thread's `run_loop`, the JSON codec)
/// and the continuous-batching step the engine drives per token.
fn is_root(ctx: &FileCtx, f: &FnDef) -> bool {
    !ctx.is_test_line(f.line)
        && !f.is_macro
        && (ctx.crate_name.as_deref() == Some("serving")
            || (f.self_type.as_deref() == Some("BatchGenerator") && f.name == "step"))
}

/// `transitive-panic-in-request-path`: BFS from the request-path roots;
/// every `panic!`-family macro, `.unwrap()`/`.expect()` (everywhere) and
/// `[]`-index (serving crate) in a reachable fn is a sink.
pub fn check_transitive_panics(g: &CallGraph<'_>, out: &mut Vec<Diagnostic>) {
    let fn_of = |ni: usize| &g.ctxs[g.nodes[ni].file].ast.fns[g.nodes[ni].fnx];
    let mut parent: Vec<Option<usize>> = vec![None; g.nodes.len()];
    let mut visited: Vec<bool> = vec![false; g.nodes.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for (ni, n) in g.nodes.iter().enumerate() {
        if is_root(&g.ctxs[n.file], fn_of(ni)) {
            visited[ni] = true;
            queue.push_back(ni);
        }
    }
    let mut order: Vec<usize> = Vec::new();
    while let Some(ni) = queue.pop_front() {
        order.push(ni);
        for &to in &g.edges[ni] {
            if !visited[to] && !g.ctxs[g.nodes[to].file].is_test_line(fn_of(to).line) {
                visited[to] = true;
                parent[to] = Some(ni);
                queue.push_back(to);
            }
        }
    }

    let path_to = |ni: usize| -> String {
        let mut names: Vec<String> = Vec::new();
        let mut cur = Some(ni);
        while let Some(k) = cur {
            names.push(fn_of(k).display());
            cur = parent[k];
        }
        names.reverse();
        names.join(" -> ")
    };

    let mut seen: BTreeSet<(usize, u32)> = BTreeSet::new();
    for &ni in &order {
        let n = &g.nodes[ni];
        let ctx = &g.ctxs[n.file];
        let f = fn_of(ni);
        let mut sink = |line: u32, what: String, out: &mut Vec<Diagnostic>| {
            if ctx.is_test_line(line) || !seen.insert((n.file, line)) {
                return;
            }
            out.push(Diagnostic {
                path: ctx.path.clone(),
                line,
                rule: TRANSITIVE_PANIC,
                msg: format!(
                    "{what} is reachable from the request path ({}); return a `Result`, or \
                     justify with `// xlint: allow({TRANSITIVE_PANIC}): reason`",
                    path_to(ni)
                ),
            });
        };
        for c in &f.calls {
            if c.recv.is_some() && matches!(c.name(), "unwrap" | "expect") {
                sink(c.line, format!("`.{}()` in `{}`", c.name(), f.display()), out);
            }
        }
        for m in &f.macros {
            if SINK_MACROS.contains(&m.name()) {
                sink(m.line, format!("`{}!` in `{}`", m.name(), f.display()), out);
            }
        }
        // Indexing is a sink only in the serving crate: a kernel's hot
        // loops index by construction and are covered by the bounds
        // proofs in their own tests; a handler indexing request data is
        // a remote crash.
        if ctx.crate_name.as_deref() == Some("serving") {
            for &l in &f.index_lines {
                sink(l, format!("`[]`-indexing in `{}`", f.display()), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_lines(files: &[(&str, &str)]) -> Vec<(String, u32)> {
        let cs: Vec<FileCtx> = files.iter().map(|(p, s)| FileCtx::new(p, s)).collect();
        let mut out = Vec::new();
        check_transitive_panics(&build(&cs), &mut out);
        out.into_iter().map(|d| (d.path, d.line)).collect()
    }

    fn at(path: &str, line: u32) -> (String, u32) {
        (path.to_string(), line)
    }

    #[test]
    fn cross_crate_unwrap_reached_from_handler() {
        let got = diag_lines(&[
            (
                "crates/serving/src/api.rs",
                "use ratatouille_models::sample::decode_one;\n\
                 fn handle_generate() { decode_one(3); }\n",
            ),
            (
                "crates/models/src/sample.rs",
                "pub fn decode_one(x: u32) -> u32 { helper(x) }\n\
                 fn helper(x: u32) -> u32 { Some(x).unwrap() }\n\
                 fn shaped(d: &[usize]) -> usize { d.iter().product::<usize>().checked_mul(4).unwrap() }\n",
            ),
        ]);
        assert_eq!(got, vec![at("crates/models/src/sample.rs", 2)], "`shaped` is unreachable");
        let cs = [
            FileCtx::new(
                "crates/serving/src/api.rs",
                "use ratatouille_models::sample::decode_greedy;\nfn handle_generate() { decode_greedy(); }\n",
            ),
            FileCtx::new(
                "crates/models/src/sample.rs",
                "pub fn decode_greedy() { argmax(); }\nfn argmax() { None::<u8>.unwrap(); }\n",
            ),
        ];
        let mut out = Vec::new();
        check_transitive_panics(&build(&cs), &mut out);
        assert!(
            out[0].msg.contains("(handle_generate -> decode_greedy -> argmax)"),
            "the diagnostic names the shortest root path: {}",
            out[0].msg
        );
    }

    #[test]
    fn method_call_reaches_impl_across_crates() {
        let got = diag_lines(&[
            (
                "crates/models/src/batch.rs",
                "impl BatchGenerator { fn step(&mut self, m: &dyn BatchStepModel) { m.batch_step(); } }\n",
            ),
            (
                "crates/models/src/gpt2.rs",
                "impl BatchStepModel for Gpt2Lm {\n    fn batch_step(&self) { panic!(\"kv exhausted\"); }\n}\n",
            ),
        ]);
        assert_eq!(got, vec![at("crates/models/src/gpt2.rs", 2)]);
    }

    /// The engine thread's `backend.step()`, an unrelated `Adam::step`
    /// that panics, and a `StepBackend` impl whose `step` expects.
    const ENGINE: [(&str, &str); 3] = [
        (
            "crates/serving/src/batch.rs",
            "pub trait StepBackend { fn step(&mut self) -> u32; }\n\
             fn run_loop(backend: &mut dyn StepBackend) { backend.step(); }\n",
        ),
        (
            "crates/ratatouille/src/batch_backend.rs",
            "impl StepBackend for BatchModelBackend {\n    fn step(&mut self) -> u32 { self.n.expect(\"n\") }\n}\n",
        ),
        ("crates/tensor/src/optim.rs", "impl Adam {\n    pub fn step(&mut self) { panic!(\"nan grad\"); }\n}\n"),
    ];

    #[test]
    fn dyn_trait_receiver_reaches_the_trait_impls() {
        let got = diag_lines(&ENGINE);
        assert!(got.contains(&at("crates/ratatouille/src/batch_backend.rs", 2)), "{got:?}");
    }

    #[test]
    fn dyn_trait_receiver_skips_other_methods_of_that_name() {
        assert_eq!(diag_lines(&ENGINE), vec![at("crates/ratatouille/src/batch_backend.rs", 2)]);
    }

    #[test]
    fn field_receiver_resolves_on_the_field_type() {
        let got = diag_lines(&[
            (
                "crates/models/src/transformer.rs",
                "struct Block { qkv: Linear }\n\
                 impl Linear {\n    fn forward(&self) {}\n}\n\
                 impl Block {\n    fn forward(&self) { panic!(\"train-only\"); }\n    \
                 pub fn decode(&self) { self.qkv.forward(); }\n}\n",
            ),
            ("crates/serving/src/api.rs", "fn handle(b: &Block) { b.decode(); }\n"),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn std_chain_reaches_no_workspace_method() {
        let got = diag_lines(&[
            ("crates/serving/src/api.rs", "fn total(xs: &[f32]) -> f32 { xs.iter().map(|x| x * 2.0).sum() }\n"),
            ("crates/models/src/autograd.rs", "impl Var {\n    pub fn sum(&self) { panic!(\"no graph\"); }\n}\n"),
        ]);
        assert!(got.is_empty(), "{got:?}");
        // an untyped receiver still matches by name
        let got = diag_lines(&[
            ("crates/serving/src/api.rs", "fn total(v: Whatever) { let x = v.var(); x.sum(); }\n"),
            ("crates/models/src/autograd.rs", "impl Var {\n    pub fn sum(&self) { panic!(\"no graph\"); }\n}\n"),
        ]);
        assert_eq!(got, vec![at("crates/models/src/autograd.rs", 2)]);
    }

    /// The `/metrics` renderer's receivers: a variant payload, an indexed
    /// array field, a tuple struct's field and a static are all typed, so
    /// none of `.load()`/`.sum()` falls back to a panicking namesake.
    #[test]
    fn patterns_indexing_tuple_fields_and_statics_are_typed() {
        let got = diag_lines(&[
            (
                "crates/obs/src/metrics.rs",
                "pub struct Counter(AtomicU64);\npub struct Histogram { buckets: [AtomicU64; 4] }\n\
                 enum Metric { Counter(Arc<Counter>), Histogram(Arc<Histogram>) }\n\
                 static NUM: AtomicUsize = AtomicUsize::new(0);\n\
                 impl Counter { pub fn get(&self) -> u64 { self.0.load(R) } }\n\
                 impl Histogram { pub fn sum(&self) -> u64 { 0 } }\n\
                 pub fn render(m: &Metric) {\n    NUM.load(R);\n    match m {\n        \
                 Metric::Histogram(h) => { h.buckets[0].load(R); h.sum(); }\n        \
                 Metric::Counter(c) => { c.get(); }\n    }\n}\n",
            ),
            ("crates/serving/src/api.rs", "fn metrics(m: &Metric) { obs::metrics::render(m); }\n"),
            ("crates/tensor/src/serialize.rs", "impl TensorMap {\n    pub fn load(&self) { panic!(\"bad file\"); }\n}\n"),
            ("crates/models/src/autograd.rs", "impl Var {\n    pub fn sum(&self) { panic!(\"no graph\"); }\n}\n"),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn unreachable_panic_not_flagged_and_tests_exempt() {
        let got = diag_lines(&[
            ("crates/models/src/a.rs", "fn orphan() { panic!(\"never served\"); }\n"),
            (
                "crates/serving/src/api.rs",
                "fn handle_x() { ok(); }\nfn ok() {}\n\
                 #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::handle_x(); panic!(\"x\"); }\n}\n",
            ),
        ]);
        assert!(got.is_empty());
    }

    #[test]
    fn every_serving_fn_is_a_root_and_indexing_is_a_sink_there_only() {
        let got = diag_lines(&[
            (
                "crates/serving/src/api.rs",
                "fn handle_x(v: &[u8]) -> u8 { kernel(v); v[0] }\nfn helper(v: Option<u8>) -> u8 { v.expect(\"x\") }\n",
            ),
            ("crates/serving/src/util.rs", "pub fn kernel(v: &[u8]) -> u8 { v[1] }\n"),
        ]);
        assert_eq!(
            got,
            vec![at("crates/serving/src/api.rs", 1), at("crates/serving/src/api.rs", 2), at("crates/serving/src/util.rs", 1)]
        );
        let got = diag_lines(&[
            ("crates/serving/src/api.rs", "fn handle_x() { ratatouille_models::sample::pick(); }\n"),
            ("crates/models/src/sample.rs", "pub fn pick(v: &[u8]) -> u8 { v[1] }\n"),
        ]);
        assert!(got.is_empty(), "models indexing is not a sink");
    }

    #[test]
    fn obs_macro_body_reaches_registry_constructor() {
        let got = diag_lines(&[
            (
                "crates/serving/src/api.rs",
                "fn handle_x() { let h = obs::static_histogram!(\"generate_latency_ns\"); h.observe(1); }\n",
            ),
            (
                "crates/obs/src/lib.rs",
                "#[macro_export]\nmacro_rules! static_histogram {\n    ($name:expr) => {{\n        \
                 HANDLE.get_or_init(|| $crate::metrics::histogram($name))\n    }};\n}\n",
            ),
            (
                "crates/obs/src/metrics.rs",
                "pub fn histogram(name: &str) -> u32 {\n    panic!(\"metric already registered\");\n}\n",
            ),
        ]);
        assert_eq!(got, vec![at("crates/obs/src/metrics.rs", 2)]);
    }

    #[test]
    fn batch_generator_step_is_a_root() {
        let got = diag_lines(&[(
            "crates/models/src/batch.rs",
            "impl BatchGenerator {\n    fn step(&mut self) { self.grow(); }\n    fn grow(&mut self) { self.cap.expect(\"cap set\"); }\n}\n",
        )]);
        assert_eq!(got, vec![at("crates/models/src/batch.rs", 3)]);
    }

    #[test]
    fn file_modules_mapping() {
        assert_eq!(
            file_modules("crates/tensor/src/ops/simd.rs"),
            (Some("tensor".to_string()), vec!["ops".to_string(), "simd".to_string()])
        );
        assert_eq!(file_modules("crates/obs/src/lib.rs"), (Some("obs".to_string()), vec![]));
        assert_eq!(
            file_modules("crates/bench/src/bin/metrics_smoke.rs"),
            (Some("bench".to_string()), vec!["metrics_smoke".to_string()])
        );
        assert_eq!(file_modules("tests/xlint_gate.rs"), (None, vec![]));
    }
}
