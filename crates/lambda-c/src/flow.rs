//! Abstract interpretation over compiled [`Code`]: certified loss bounds,
//! effect purity, and static decision shapes.
//!
//! Branch-and-bound pruning (strict domination on partial ambient losses)
//! is sound only when every future emission is non-negative. Until now that
//! was an unchecked caller promise — a bare `nonneg: bool` the runtime
//! trusted blindly. This module derives the promise from the program
//! instead: a fixpoint-free abstract interpreter walks the scope-checked,
//! loop-free de Bruijn [`Code`] and runs three cooperating analyses:
//!
//! 1. **Loss-sign/interval analysis.** Abstract domain
//!    `{Bot, NonNeg, Interval(lo, hi), Top}` over loss values and ambient
//!    emissions. The machine only feeds the pruning accumulator from
//!    ambient `loss(e)` sites (`capture_depth == 0` in
//!    [`machine`](crate::machine)); Then-captured and Reset-discarded
//!    emissions never reach it directly, but their folded verdicts re-enter
//!    as *values*, which the interval domain tracks through the binding.
//!    If every ambient `loss` site is provably non-negative the program
//!    earns a [`NonNegLosses`] certificate.
//! 2. **Effect/purity analysis.** Does the program probe captured
//!    continuations (`l`), reset, or mutate handler state on resume? The
//!    verdict gates which decision prefixes are safe to transposition-cache
//!    and lets `serve` advertise per-tenant prune-eligibility.
//! 3. **Static decision-shape analysis.** Choice-point count and depth
//!    bounds per execution path, feeding `TreeEngine` work-partitioning and
//!    letting `serve` reject over-deep workloads at validate time.
//! 4. **Decision-site liveness ([`MergeSites`]).** For each decision
//!    `OpCall` site whose continuation is fixed by its position in the
//!    code, the env slots that continuation can read. With them a choice
//!    point's future is a function of its *state* (site, live values,
//!    handler parameters, running total, fuel), so the tree walk can merge
//!    prefixes that reach equal states (see
//!    [`ChoicePoint::state_key`](crate::machine::ChoicePoint::state_key)).
//!
//! # Soundness argument
//!
//! The Fig-6 machine adds to the pruning accumulator exactly the values
//! emitted at `loss` sites while `capture_depth == 0`. A site that emits a
//! component-wise non-negative [`LossVal`] on *every* evaluation only ever
//! grows the accumulator under the scalar total order, so partial losses
//! are monotone lower bounds and strict-domination pruning cannot change
//! the winner. The analysis therefore certifies the *site condition*:
//! every `loss` site whose emission can reach a live buffer has an
//! abstract interval with `lo >= 0`. Captured regions (`Then` bodies,
//! `Reset`) are suppressed for violation purposes — their emissions fold
//! into verdict *values*, and any negative verdict re-emitted ambiently is
//! caught at the re-emitting site because the interval rides along the
//! binding. Closures that escape to unknown code are conservatively
//! applied in an ambient context (`escape`), so a suppressed negative
//! cannot hide in a lambda. Unknown applications, probes, and budget
//! exhaustion set `inconclusive`, which refuses certification.
//!
//! Certificates are scoped to **forced-choice replay** over the declared
//! decision operations — the only mode `lambda-rt`'s pruning evaluators
//! run. Under forced replay the machine intercepts decision ops at the
//! handler boundary and never runs their clauses, so decision-op clause
//! bodies are dead code: they are still scanned for violations
//! (conservative) but excluded from purity, shape, and emission totals.
//!
//! ```
//! use lambda_c::testgen::{deep_decide_chain, gen_signature};
//! use lambda_c::{compile, flow};
//!
//! let prog = compile(&deep_decide_chain(6).expr).unwrap();
//! let report = flow::analyze(&prog, &gen_signature().decision_ops());
//! let cert = report.certificate().expect("chain losses are non-negative");
//! assert!(cert.covers(&prog));
//! assert_eq!(report.shape.max, Some(6));
//! ```

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use crate::compile::{Code, CodeHandler, CompiledProgram};
use crate::loss::LossVal;
use crate::syntax::Const;

/// Abstract loss: the sign/interval domain.
///
/// `Interval(lo, hi)` abstracts a [`LossVal`] by an interval that contains
/// **every component and `0`** (`lo <= 0 <= hi`). Including `0` makes the
/// element-wise zero-padding of [`LossVal::add`] and the zero-defaulting
/// component reads (`fst_loss` on a scalar, `as_scalar` on the empty
/// vector) sound for free. `NonNeg` is `[0, +inf)`; `Top` is all of `R`
/// (and absorbs NaN).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossAbs {
    /// Unreachable / no value.
    Bot,
    /// Every component in `[0, +inf)`.
    NonNeg,
    /// Every component in `[lo, hi]`, with `lo <= 0 <= hi` finite.
    Interval(f64, f64),
    /// No information (includes NaN).
    Top,
}

impl LossAbs {
    /// The abstraction of the monoid unit.
    pub fn zero() -> LossAbs {
        LossAbs::Interval(0.0, 0.0)
    }

    /// Abstracts a concrete loss: the smallest interval containing all
    /// components and `0`. NaN components go to `Top`.
    pub fn constant(l: &LossVal) -> LossAbs {
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for &x in &l.0 {
            if x.is_nan() {
                return LossAbs::Top;
            }
            lo = lo.min(x);
            hi = hi.max(x);
        }
        LossAbs::from_bounds(lo, hi)
    }

    fn bounds(self) -> Option<(f64, f64)> {
        match self {
            LossAbs::Bot => None,
            LossAbs::NonNeg => Some((0.0, f64::INFINITY)),
            LossAbs::Interval(lo, hi) => Some((lo, hi)),
            LossAbs::Top => Some((f64::NEG_INFINITY, f64::INFINITY)),
        }
    }

    fn from_bounds(lo: f64, hi: f64) -> LossAbs {
        if lo.is_nan() || hi.is_nan() || lo == f64::NEG_INFINITY {
            LossAbs::Top
        } else if hi == f64::INFINITY {
            if lo >= 0.0 {
                LossAbs::NonNeg
            } else {
                // The four-point domain has no `[lo, +inf)` element for
                // negative `lo`; round up.
                LossAbs::Top
            }
        } else {
            LossAbs::Interval(lo.min(0.0), hi.max(0.0))
        }
    }

    /// Least upper bound.
    pub fn join(self, other: LossAbs) -> LossAbs {
        match (self.bounds(), other.bounds()) {
            (None, _) => other,
            (_, None) => self,
            (Some((a, b)), Some((c, d))) => LossAbs::from_bounds(a.min(c), b.max(d)),
        }
    }

    /// Abstract monoid addition (element-wise with zero padding).
    // Named for the λC primitive it abstracts, not the operator trait.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: LossAbs) -> LossAbs {
        match (self.bounds(), other.bounds()) {
            (None, _) | (_, None) => LossAbs::Bot,
            (Some((a, b)), Some((c, d))) => LossAbs::from_bounds(a + c, b + d),
        }
    }

    /// Abstract negation.
    // Named for the λC primitive it abstracts, not the operator trait.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> LossAbs {
        match self.bounds() {
            None => LossAbs::Bot,
            Some((lo, hi)) => LossAbs::from_bounds(-hi, -lo),
        }
    }

    /// Abstract scalar multiplication (interval product; both operand
    /// intervals contain `0`, so corner analysis is exact up to rounding
    /// into the four-point domain).
    // Named for the λC primitive it abstracts, not the operator trait.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: LossAbs) -> LossAbs {
        // x * y over a rectangle is extremal at corners; `0 * inf` corners
        // are limits along a zero edge, where the product is identically 0.
        fn corner(x: f64, y: f64) -> f64 {
            if x == 0.0 || y == 0.0 {
                0.0
            } else {
                x * y
            }
        }
        match (self.bounds(), other.bounds()) {
            (None, _) | (_, None) => LossAbs::Bot,
            (Some((a, b)), Some((c, d))) => {
                let cs = [corner(a, c), corner(a, d), corner(b, c), corner(b, d)];
                let lo = cs.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = cs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                LossAbs::from_bounds(lo, hi)
            }
        }
    }

    /// Abstract closure under zero-or-more additions (handler clauses,
    /// iteration bodies): `[0,0]` stays zero, non-negative stays
    /// non-negative but unbounded, anything that can be negative is `Top`.
    pub fn star(self) -> LossAbs {
        match self.bounds() {
            None => LossAbs::zero(),
            Some((lo, hi)) => {
                if lo >= 0.0 && hi <= 0.0 {
                    LossAbs::zero()
                } else if lo >= 0.0 {
                    LossAbs::NonNeg
                } else {
                    LossAbs::Top
                }
            }
        }
    }

    /// True iff every concretisation is component-wise non-negative.
    pub fn is_nonneg(self) -> bool {
        match self {
            LossAbs::Bot | LossAbs::NonNeg => true,
            LossAbs::Interval(lo, _) => lo >= 0.0,
            LossAbs::Top => false,
        }
    }

    /// True iff the concrete loss is covered by this abstraction.
    pub fn contains(self, l: &LossVal) -> bool {
        match self.bounds() {
            None => false,
            Some((lo, hi)) => {
                l.0.iter().all(|&x| {
                    x.is_nan() && hi == f64::INFINITY && lo == f64::NEG_INFINITY
                        || (lo <= x && x <= hi)
                }) && lo <= 0.0
                    && hi >= 0.0
            }
        }
    }
}

impl fmt::Display for LossAbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LossAbs::Bot => write!(f, "⊥"),
            LossAbs::NonNeg => write!(f, "[0, +∞)"),
            LossAbs::Interval(lo, hi) => write!(f, "[{lo}, {hi}]"),
            LossAbs::Top => write!(f, "⊤"),
        }
    }
}

/// Static bounds on the number of decision points (forced-choice
/// operations) along any execution path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionShape {
    /// Decisions on the shortest path.
    pub min: u64,
    /// Decisions on the longest path, `None` if unbounded/unknown.
    pub max: Option<u64>,
}

impl DecisionShape {
    /// No decisions.
    pub fn zero() -> DecisionShape {
        DecisionShape { min: 0, max: Some(0) }
    }

    /// Exactly one decision.
    pub fn one() -> DecisionShape {
        DecisionShape { min: 1, max: Some(1) }
    }

    /// Unknown shape (e.g. behind an unknown application).
    pub fn unknown() -> DecisionShape {
        DecisionShape { min: 0, max: None }
    }

    /// Sequential composition.
    pub fn seq(self, other: DecisionShape) -> DecisionShape {
        DecisionShape {
            min: self.min + other.min,
            max: self.max.zip(other.max).map(|(a, b)| a + b),
        }
    }

    /// Branch join.
    pub fn join(self, other: DecisionShape) -> DecisionShape {
        DecisionShape {
            min: self.min.min(other.min),
            max: self.max.zip(other.max).map(|(a, b)| a.max(b)),
        }
    }

    /// Zero-or-more repetitions.
    pub fn star(self) -> DecisionShape {
        DecisionShape { min: 0, max: if self.max == Some(0) { Some(0) } else { None } }
    }
}

/// Effect-purity verdict: which machine features the program (outside dead
/// decision-op clauses) can exercise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Purity {
    /// May call a captured loss probe `l` (re-runs continuations).
    pub probes: bool,
    /// Contains `reset` (re-scopes emission buffers across resumptions).
    pub resets: bool,
    /// A live handler clause may resume with a parameter other than the
    /// one it received (handler-state mutation past the decision prefix).
    pub mutates_param: bool,
}

impl Purity {
    /// True iff decision prefixes are safe to transposition-cache: no
    /// probes re-running captured futures and no handler-state mutation
    /// that could make a prefix's continuation depend on history beyond
    /// the decision bits.
    pub fn prefix_cache_safe(&self) -> bool {
        !self.probes && !self.mutates_param
    }
}

/// A `loss` site the analysis could not prove non-negative.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The abstract emission at the site.
    pub interval: LossAbs,
    /// A short description of the offending site.
    pub site: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loss site `{}` emits {}", self.site, self.interval)
    }
}

/// A non-forgeable certificate that every ambient emission of a specific
/// compiled program is component-wise non-negative, so strict-domination
/// pruning under forced-choice replay is winner-preserving.
///
/// The only way to obtain one is [`analyze`] returning a clean report;
/// [`NonNegLosses::covers`] ties the certificate to the exact
/// [`CompiledProgram`] it was derived from (pointer identity, `O(1)`).
#[derive(Clone, Debug)]
pub struct NonNegLosses {
    code: Arc<Code>,
}

impl NonNegLosses {
    /// True iff this certificate was derived from exactly `program`.
    pub fn covers(&self, program: &CompiledProgram) -> bool {
        Arc::ptr_eq(&self.code, &program.code)
    }
}

/// The combined verdict of the three analyses.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Interval bound on the total ambient emission (often `Top` for
    /// handled programs; the certificate does not depend on it).
    pub emitted: LossAbs,
    /// Ambient `loss` sites that could not be proven non-negative.
    pub violations: Vec<Violation>,
    /// True if the analysis hit unknown code or its budget: certification
    /// is refused even with no recorded violations.
    pub inconclusive: bool,
    /// Effect-purity verdict.
    pub purity: Purity,
    /// Decision-shape bounds.
    pub shape: DecisionShape,
    /// The decision sites whose choice points carry a merge key.
    pub merge: MergeSites,
    certificate: Option<NonNegLosses>,
}

impl FlowReport {
    /// The non-negative-losses certificate, if earned.
    pub fn certificate(&self) -> Option<&NonNegLosses> {
        self.certificate.as_ref()
    }

    /// True iff the program was certified.
    pub fn certified(&self) -> bool {
        self.certificate.is_some()
    }
}

/// Analysis configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlowConfig {
    /// Abstract evaluation steps before the analysis gives up and reports
    /// `inconclusive` (guards against exponential beta-redex blowup; λC
    /// `Code` is loop-free, so plain programs finish far below this).
    pub budget: usize,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig { budget: 1 << 20 }
    }
}

/// Runs all three analyses on a compiled program.
///
/// `decision_ops` are the operations the runtime will force (scripted
/// decisions replacing their handler clauses); see
/// [`Signature::decision_ops`](crate::sig::Signature::decision_ops).
pub fn analyze<S: AsRef<str>>(program: &CompiledProgram, decision_ops: &[S]) -> FlowReport {
    analyze_with(program, decision_ops, FlowConfig::default())
}

/// [`analyze`] with an explicit budget.
pub fn analyze_with<S: AsRef<str>>(
    program: &CompiledProgram,
    decision_ops: &[S],
    config: FlowConfig,
) -> FlowReport {
    let ops: Vec<&str> = decision_ops.iter().map(AsRef::as_ref).collect();
    let mut an = Analyzer {
        decision_ops: &ops,
        budget: config.budget,
        suppress: 0,
        violations: Vec::new(),
        inconclusive: false,
        purity: Purity::default(),
    };
    let out = an.eval(&program.code, &Env::default());
    // A program whose *result* is a closure may be applied by the caller
    // in an ambient context; scan it like any other escape.
    an.escape(&out.val);
    let certified = an.violations.is_empty() && !an.inconclusive;
    FlowReport {
        emitted: if certified && !out.emit.is_nonneg() {
            // The site condition proves non-negativity even when interval
            // propagation through handler clauses lost precision.
            LossAbs::NonNeg
        } else {
            out.emit
        },
        violations: an.violations,
        inconclusive: an.inconclusive,
        purity: an.purity,
        shape: out.shape,
        merge: merge_sites(program, &ops),
        certificate: if certified {
            Some(NonNegLosses { code: program.code.clone() })
        } else {
            None
        },
    }
}

/// Abstract value.
#[derive(Clone, Debug)]
enum AbsVal {
    /// A loss with an interval bound.
    Loss(LossAbs),
    /// A known closure (body + captured abstract environment).
    Clos(Arc<Code>, Env),
    /// A tuple of known arity.
    Tuple(Vec<AbsVal>),
    /// A known injection (branch + payload) — gives `Cases` precision on
    /// constant booleans.
    Sum(bool, Box<AbsVal>),
    /// The handler parameter `p` (tracked for mutation analysis).
    Param,
    /// A captured continuation `k`.
    Resume,
    /// A loss probe `l`.
    Probe,
    /// Anything else.
    Opaque,
}

type Env = Vec<AbsVal>;

/// Result of abstractly evaluating one term: its value, the interval of
/// what it emits into the *innermost enclosing buffer*, and its decision
/// shape.
struct Out {
    val: AbsVal,
    emit: LossAbs,
    shape: DecisionShape,
}

impl Out {
    fn pure(val: AbsVal) -> Out {
        Out { val, emit: LossAbs::zero(), shape: DecisionShape::zero() }
    }
}

struct Analyzer<'a> {
    decision_ops: &'a [&'a str],
    budget: usize,
    /// Depth of captured regions (`Then` bodies, `Reset`): violations are
    /// not recorded there because those emissions never reach a live
    /// pruning buffer directly — their fold re-enters as a value.
    suppress: u32,
    violations: Vec<Violation>,
    inconclusive: bool,
    purity: Purity,
}

impl Analyzer<'_> {
    fn is_decision(&self, op: &str) -> bool {
        self.decision_ops.contains(&op)
    }

    fn give_up(&mut self) -> Out {
        self.inconclusive = true;
        Out { val: AbsVal::Opaque, emit: LossAbs::Top, shape: DecisionShape::unknown() }
    }

    fn eval(&mut self, code: &Arc<Code>, env: &Env) -> Out {
        if self.budget == 0 {
            return self.give_up();
        }
        self.budget -= 1;
        match &**code {
            Code::Const(Const::Loss(l)) => Out::pure(AbsVal::Loss(LossAbs::constant(l))),
            Code::Const(_) => Out::pure(AbsVal::Opaque),
            Code::Var(i) => {
                Out::pure(env.get(env.len().wrapping_sub(1 + i)).cloned().unwrap_or(AbsVal::Opaque))
            }
            Code::Lam(body) => Out::pure(AbsVal::Clos(body.clone(), env.clone())),
            Code::Prim(name, arg) => {
                let a = self.eval(arg, env);
                Out { val: self.prim(name, &a.val), emit: a.emit, shape: a.shape }
            }
            Code::App(f, a) => {
                let fo = self.eval(f, env);
                let ao = self.eval(a, env);
                let app = self.apply(&fo.val, ao.val);
                Out {
                    val: app.val,
                    emit: fo.emit.add(ao.emit).add(app.emit),
                    shape: fo.shape.seq(ao.shape).seq(app.shape),
                }
            }
            Code::Tuple(es) => {
                let mut vals = Vec::with_capacity(es.len());
                let mut emit = LossAbs::zero();
                let mut shape = DecisionShape::zero();
                for e in es {
                    let o = self.eval(e, env);
                    vals.push(o.val);
                    emit = emit.add(o.emit);
                    shape = shape.seq(o.shape);
                }
                Out { val: AbsVal::Tuple(vals), emit, shape }
            }
            Code::Proj(e, i) => {
                let o = self.eval(e, env);
                let val = match o.val {
                    AbsVal::Tuple(mut vs) if *i < vs.len() => vs.swap_remove(*i),
                    _ => AbsVal::Opaque,
                };
                Out { val, emit: o.emit, shape: o.shape }
            }
            Code::Inl { e, .. } => {
                let o = self.eval(e, env);
                Out { val: AbsVal::Sum(true, Box::new(o.val)), emit: o.emit, shape: o.shape }
            }
            Code::Inr { e, .. } => {
                let o = self.eval(e, env);
                Out { val: AbsVal::Sum(false, Box::new(o.val)), emit: o.emit, shape: o.shape }
            }
            Code::Cases { scrut, lbody, rbody } => {
                let s = self.eval(scrut, env);
                match s.val {
                    AbsVal::Sum(left, payload) => {
                        let branch = if left { lbody } else { rbody };
                        let mut env2 = env.clone();
                        env2.push(*payload);
                        let o = self.eval(branch, &env2);
                        Out { val: o.val, emit: s.emit.add(o.emit), shape: s.shape.seq(o.shape) }
                    }
                    _ => {
                        let mut env2 = env.clone();
                        env2.push(AbsVal::Opaque);
                        let l = self.eval(lbody, &env2);
                        let r = self.eval(rbody, &env2);
                        Out {
                            val: join_val(l.val, r.val),
                            emit: s.emit.add(l.emit.join(r.emit)),
                            shape: s.shape.seq(l.shape.join(r.shape)),
                        }
                    }
                }
            }
            Code::Zero => Out::pure(AbsVal::Opaque),
            Code::Succ(e) => {
                let o = self.eval(e, env);
                Out { val: AbsVal::Opaque, emit: o.emit, shape: o.shape }
            }
            Code::Nil(_) => Out::pure(AbsVal::Opaque),
            Code::Cons(h, t) => {
                let ho = self.eval(h, env);
                let to = self.eval(t, env);
                // List elements flow into folds as opaque values; escape
                // any closures stored in the spine so their bodies are
                // still scanned.
                self.escape(&ho.val);
                Out {
                    val: AbsVal::Opaque,
                    emit: ho.emit.add(to.emit),
                    shape: ho.shape.seq(to.shape),
                }
            }
            Code::Iter(n, z, s) | Code::Fold(n, z, s) => {
                let no = self.eval(n, env);
                let zo = self.eval(z, env);
                let so = self.eval(s, env);
                // The step runs zero or more times on values we cannot
                // track; one application to an opaque argument covers every
                // iteration (the abstract environment is the same and
                // `Opaque` is above every iterate).
                let step = self.apply(&so.val, AbsVal::Opaque);
                Out {
                    val: AbsVal::Opaque,
                    emit: no.emit.add(zo.emit).add(so.emit).add(step.emit.star()),
                    shape: no.shape.seq(zo.shape).seq(so.shape).seq(step.shape.star()),
                }
            }
            Code::OpCall { op, arg } => {
                let a = self.eval(arg, env);
                self.escape(&a.val);
                let here = if self.is_decision(op) {
                    // Forced replay intercepts this call at the handler
                    // boundary and returns a scripted decision; the clause
                    // never runs, so the site itself emits nothing.
                    DecisionShape::one()
                } else {
                    // Non-decision clauses run; their emissions are
                    // accounted (starred) at the enclosing `Handle`.
                    DecisionShape::zero()
                };
                Out { val: AbsVal::Opaque, emit: a.emit, shape: a.shape.seq(here) }
            }
            Code::Loss(e) => {
                let o = self.eval(e, env);
                let emitted = match o.val {
                    AbsVal::Loss(abs) => abs,
                    _ => LossAbs::Top,
                };
                if self.suppress == 0 && !emitted.is_nonneg() {
                    self.violations
                        .push(Violation { interval: emitted, site: format!("loss({:?})", e) });
                }
                Out { val: AbsVal::Opaque, emit: o.emit.add(emitted), shape: o.shape }
            }
            Code::Handle { handler, from, body } => {
                let fo = self.eval(from, env);
                let bo = self.eval(body, env);
                let mut clause_emit = LossAbs::Bot;
                let mut clause_shape = DecisionShape::zero();
                let mut any_live = false;
                for clause in &handler.clauses {
                    let mut env2 = env.clone();
                    env2.push(AbsVal::Param); // p
                    env2.push(AbsVal::Opaque); // x
                    env2.push(AbsVal::Probe); // l
                    env2.push(AbsVal::Resume); // k
                    if self.is_decision(&clause.op) {
                        // Dead under forced replay: scan for violations
                        // only; drop purity/emission/shape contributions.
                        self.scan_dead(&clause.body, &env2);
                    } else {
                        let co = self.eval(&clause.body, &env2);
                        clause_emit = clause_emit.join(co.emit);
                        clause_shape = clause_shape.join(co.shape);
                        any_live = true;
                    }
                }
                let mut env_ret = env.clone();
                env_ret.push(AbsVal::Param); // p
                env_ret.push(AbsVal::Opaque); // x
                let ro = self.eval(&handler.ret_body, &env_ret);
                let clause_part = if any_live { clause_emit.star() } else { LossAbs::zero() };
                Out {
                    val: AbsVal::Opaque,
                    emit: fo.emit.add(bo.emit).add(clause_part).add(ro.emit),
                    shape: fo.shape.seq(bo.shape).seq(clause_shape.star()).seq(ro.shape),
                }
            }
            Code::Then { e, lam_body } => {
                // `e`'s emissions are captured: they fold into the `◮`
                // verdict (`cap_1 + … + cap_n + g(v)`) instead of reaching
                // the outer buffer, so violations inside are suppressed —
                // the interval rides along the verdict value, and a
                // negative verdict re-emitted ambiently is caught at that
                // re-emitting site. The continuation receives `e`'s value
                // and runs against the outer buffer.
                self.suppress += 1;
                let eo = self.eval(e, env);
                self.suppress -= 1;
                let mut env2 = env.clone();
                env2.push(eo.val);
                let lo = self.eval(lam_body, &env2);
                let g_verdict = match lo.val {
                    AbsVal::Loss(a) => a,
                    _ => LossAbs::Top,
                };
                Out {
                    val: AbsVal::Loss(eo.emit.add(g_verdict)),
                    emit: lo.emit,
                    shape: eo.shape.seq(lo.shape),
                }
            }
            Code::Local { g_body, e } => {
                // `e` shares the outer buffer; the local loss continuation
                // `g` runs at decision points inside, zero or more times.
                let eo = self.eval(e, env);
                let mut env2 = env.clone();
                env2.push(AbsVal::Opaque);
                let go = self.eval(g_body, &env2);
                Out {
                    val: eo.val,
                    emit: eo.emit.add(go.emit.star()),
                    shape: eo.shape.seq(go.shape.star()),
                }
            }
            Code::Reset(e) => {
                // Emissions inside route to a junk buffer, persistently
                // across resumptions: they never reach any live buffer.
                self.purity.resets = true;
                self.suppress += 1;
                let eo = self.eval(e, env);
                self.suppress -= 1;
                Out { val: eo.val, emit: LossAbs::zero(), shape: eo.shape }
            }
        }
    }

    /// Abstract prim transfer. Prims never emit.
    fn prim(&mut self, name: &str, arg: &AbsVal) -> AbsVal {
        fn loss_of(v: &AbsVal) -> LossAbs {
            match v {
                AbsVal::Loss(a) => *a,
                _ => LossAbs::Top,
            }
        }
        fn pair_of(arg: &AbsVal) -> (LossAbs, LossAbs) {
            match arg {
                AbsVal::Tuple(vs) if vs.len() == 2 => (loss_of(&vs[0]), loss_of(&vs[1])),
                _ => (LossAbs::Top, LossAbs::Top),
            }
        }
        match name {
            "add" => {
                let (a, b) = pair_of(arg);
                AbsVal::Loss(a.add(b))
            }
            "sub" => {
                let (a, b) = pair_of(arg);
                AbsVal::Loss(a.add(b.neg()))
            }
            "mul" => {
                let (a, b) = pair_of(arg);
                AbsVal::Loss(a.mul(b))
            }
            "neg" => AbsVal::Loss(loss_of(arg).neg()),
            // A pair-loss's components are the operands' scalar readings;
            // their join (both intervals contain 0) bounds every component.
            "pair_loss" => {
                let (a, b) = pair_of(arg);
                AbsVal::Loss(a.join(b))
            }
            // Component reads: the operand interval contains all components
            // and 0, so it bounds any single component too.
            "fst_loss" | "snd_loss" => AbsVal::Loss(loss_of(arg)),
            "nat_to_loss" | "str_len" | "str_distinct" => AbsVal::Loss(LossAbs::NonNeg),
            // Comparisons and the rest produce non-loss ground values.
            _ => AbsVal::Opaque,
        }
    }

    /// Abstract application. The returned `Out.emit` is what the call
    /// emits into the caller's buffer.
    fn apply(&mut self, f: &AbsVal, arg: AbsVal) -> Out {
        if self.budget == 0 {
            return self.give_up();
        }
        self.budget -= 1;
        match f {
            AbsVal::Clos(body, captured) => {
                let mut env = captured.clone();
                env.push(arg);
                self.eval(body, &env)
            }
            AbsVal::Probe => {
                // `l(p', y)` re-runs the captured continuation with losses
                // folded into the verdict it returns. Only reachable in
                // live (non-decision) clauses; conservatively unknown.
                self.purity.probes = true;
                self.check_param_passing(&arg);
                Out {
                    val: AbsVal::Loss(LossAbs::Top),
                    emit: LossAbs::Top,
                    shape: DecisionShape::unknown(),
                }
            }
            AbsVal::Resume => {
                // `k(p', y)` resumes the continuation; future `loss` sites
                // are scanned at their own occurrence, but the resumed
                // segment's emission total is unknown here.
                self.check_param_passing(&arg);
                Out { val: AbsVal::Opaque, emit: LossAbs::Top, shape: DecisionShape::unknown() }
            }
            _ => {
                // Unknown callee: it may apply the argument in any context.
                self.escape(&arg);
                self.inconclusive = true;
                Out { val: AbsVal::Opaque, emit: LossAbs::Top, shape: DecisionShape::unknown() }
            }
        }
    }

    /// `k`/`l` receive `(p', y)`; resuming with a parameter that is not
    /// the one the clause received mutates handler state.
    fn check_param_passing(&mut self, arg: &AbsVal) {
        match arg {
            AbsVal::Tuple(vs) if !vs.is_empty() => {
                if !matches!(vs[0], AbsVal::Param) {
                    self.purity.mutates_param = true;
                }
            }
            AbsVal::Param => {}
            _ => self.purity.mutates_param = true,
        }
    }

    /// Scans a value that escapes to unknown code: closures inside may be
    /// applied later in an ambient context, so analyze their bodies
    /// unsuppressed (violations recorded) without trusting emission or
    /// shape totals.
    fn escape(&mut self, v: &AbsVal) {
        if self.budget == 0 {
            self.inconclusive = true;
            return;
        }
        match v {
            AbsVal::Clos(body, captured) => {
                self.budget -= 1;
                let saved = self.suppress;
                self.suppress = 0;
                let mut env = captured.clone();
                env.push(AbsVal::Opaque);
                let out = self.eval(body, &env);
                self.suppress = saved;
                self.escape(&out.val);
            }
            AbsVal::Tuple(vs) => {
                for v in vs {
                    self.escape(v);
                }
            }
            AbsVal::Sum(_, payload) => self.escape(payload),
            _ => {}
        }
    }

    /// Analyzes dead code (decision-op clause bodies, bypassed by forced
    /// interception) for `loss` violations only: purity, emission, shape,
    /// and inconclusiveness contributions are discarded.
    fn scan_dead(&mut self, body: &Arc<Code>, env: &Env) {
        let purity = self.purity;
        let inconclusive = self.inconclusive;
        let _ = self.eval(body, env);
        self.purity = purity;
        self.inconclusive = inconclusive;
    }
}

// ---------------------------------------------------------------------------
// Decision-site liveness
// ---------------------------------------------------------------------------

/// A decision site whose choice points may be merged by state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeSite {
    /// Dense site number within the program (the first key word).
    pub id: u32,
    /// The env slots the site's continuation can read, as de Bruijn
    /// indices into the site's environment, ascending.
    pub live: Vec<u32>,
}

/// The decision `OpCall` sites of one compiled program whose choice
/// points have a state key, by the address of their `OpCall` node.
///
/// A site is listed only when its continuation is fixed by where it sits
/// in the code: every node between it and the root is evaluated *in
/// place* — a child of its parent, a `cases` branch, the body of a
/// lambda applied where it is written (`let`), or a handler's body or
/// return clause. The continuation then consists of those nodes' pending
/// frames, whose free variables are the site's live slots, and of the
/// enclosing handler activations, whose parameters the machine records
/// at the yield. A site gets no key when it
///
/// * sits under `then`, `local` or `reset` (captured or discarded loss
///   scopes fold around the continuation);
/// * sits inside a lambda body that is not applied in place, or in a
///   handler clause (the same code runs under many continuations);
/// * has a pending frame holding a value that is not syntactic (an
///   earlier sibling was computed, so its value is history);
/// * has a live slot statically bound to a closure, probe or resume;
/// * sits under a handler whose live clause uses its probe `l` at all,
///   or its resume `k` anywhere but in tail position (the resumed
///   continuation would then run inside the clause's own frames).
///
/// A `let` is `(λx. body) e`: while `e` runs, the pending frame holds
/// the let-lambda, which is static code over the site's own env. Its
/// free variables are live slots; the lambda itself is not a live
/// closure. Values the machine finds at run time that are not ground
/// (a closure reached through an opaque slot) refuse the key there.
#[derive(Clone, Debug, Default)]
pub struct MergeSites {
    sites: HashMap<usize, MergeSite>,
}

impl MergeSites {
    /// The site whose `OpCall` node is at `addr` (`Arc::as_ptr` of the
    /// node), if it has a key.
    pub fn get(&self, addr: usize) -> Option<&MergeSite> {
        self.sites.get(&addr)
    }

    /// Number of keyed sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True iff no site has a key.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

/// What the walk knows about one env slot.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Possibly ground; the machine checks when it builds a key.
    Value,
    /// Statically a closure: a live one refuses the key.
    Closure,
}

/// Runs the decision-site liveness pass (see [`MergeSites`]).
fn merge_sites(program: &CompiledProgram, decision_ops: &[&str]) -> MergeSites {
    let mut seen = HashSet::new();
    if !is_tree(&program.code, &mut seen) {
        // A node reachable by two paths has two continuations.
        return MergeSites::default();
    }
    let mut walk = SiteWalk { decision_ops, sites: MergeSites::default() };
    walk.walk(&program.code, &mut Vec::new(), &BTreeSet::new());
    walk.sites
}

/// True iff no node of `code` is reachable along two paths.
fn is_tree(code: &Arc<Code>, seen: &mut HashSet<usize>) -> bool {
    if !seen.insert(Arc::as_ptr(code) as usize) {
        return false;
    }
    let mut ok = true;
    for_each_child(code, |c, _| ok = ok && is_tree(c, seen));
    ok
}

/// Calls `f` on every direct subterm with the binders it adds.
fn for_each_child(code: &Code, mut f: impl FnMut(&Arc<Code>, usize)) {
    match code {
        Code::Const(_) | Code::Var(_) | Code::Zero | Code::Nil(_) => {}
        Code::Lam(b) => f(b, 1),
        Code::Prim(_, a)
        | Code::Proj(a, _)
        | Code::Inl { e: a, .. }
        | Code::Inr { e: a, .. }
        | Code::Succ(a)
        | Code::Loss(a)
        | Code::Reset(a)
        | Code::OpCall { arg: a, .. } => f(a, 0),
        Code::App(a, b) | Code::Cons(a, b) => {
            f(a, 0);
            f(b, 0);
        }
        Code::Tuple(es) => es.iter().for_each(|e| f(e, 0)),
        Code::Cases { scrut, lbody, rbody } => {
            f(scrut, 0);
            f(lbody, 1);
            f(rbody, 1);
        }
        Code::Iter(a, b, c) | Code::Fold(a, b, c) => {
            f(a, 0);
            f(b, 0);
            f(c, 0);
        }
        Code::Handle { handler, from, body } => {
            f(from, 0);
            f(body, 0);
            handler.clauses.iter().for_each(|c| f(&c.body, 4));
            f(&handler.ret_body, 2);
        }
        Code::Then { e, lam_body } => {
            f(e, 0);
            f(lam_body, 1);
        }
        Code::Local { g_body, e } => {
            f(g_body, 1);
            f(e, 0);
        }
    }
}

/// Adds the free variables of `code` (under `binders` extra binders) to
/// `out`, as de Bruijn indices relative to `code`'s own environment.
fn free_vars(code: &Code, binders: usize, out: &mut BTreeSet<usize>) {
    if let Code::Var(i) = code {
        if *i >= binders {
            out.insert(i - binders);
        }
        return;
    }
    for_each_child(code, |c, b| free_vars(c, binders + b, out));
}

/// True iff de Bruijn index `var` is free in `code`.
fn mentions(code: &Code, var: usize) -> bool {
    let mut fv = BTreeSet::new();
    free_vars(code, 0, &mut fv);
    fv.contains(&var)
}

/// True iff `var` (a clause's `k`) is used only as the callee of an
/// application in tail position: the clause's result *is* the resumed
/// run, so nothing of the clause is pending while it runs.
fn tail_only(code: &Code, var: usize) -> bool {
    match code {
        Code::App(f, a) => match &**f {
            Code::Var(i) if *i == var => !mentions(a, var),
            Code::Lam(body) => !mentions(a, var) && tail_only(body, var + 1),
            _ => !mentions(code, var),
        },
        Code::Cases { scrut, lbody, rbody } => {
            !mentions(scrut, var) && tail_only(lbody, var + 1) && tail_only(rbody, var + 1)
        }
        _ => !mentions(code, var),
    }
}

/// True iff the node is a syntactic value, which the machine evaluates
/// in place from the environment.
fn is_syntactic(code: &Code) -> bool {
    match code {
        Code::Const(_) | Code::Var(_) | Code::Lam(_) | Code::Zero | Code::Nil(_) => true,
        Code::Tuple(es) => es.is_empty(),
        _ => false,
    }
}

struct SiteWalk<'a> {
    decision_ops: &'a [&'a str],
    sites: MergeSites,
}

impl SiteWalk<'_> {
    fn is_decision(&self, op: &str) -> bool {
        self.decision_ops.contains(&op)
    }

    /// Adds the free variables of `code` (under `binders`), evaluated in
    /// an env of `depth` slots, to `needs` as absolute slot positions
    /// (0 = the outermost binder).
    fn need(depth: usize, code: &Code, binders: usize, needs: &mut BTreeSet<usize>) {
        let mut fv = BTreeSet::new();
        free_vars(code, binders, &mut fv);
        needs.extend(fv.into_iter().filter(|&i| i < depth).map(|i| depth - 1 - i));
    }

    /// Whether resuming inside this handler's body leaves no clause frame
    /// pending: live (non-decision) clauses never use `l` (index 1) and
    /// use `k` (index 0) only in tail position.
    fn handler_in_place(&self, h: &CodeHandler) -> bool {
        h.clauses
            .iter()
            .filter(|c| !self.is_decision(&c.op))
            .all(|c| !mentions(&c.body, 1) && tail_only(&c.body, 0))
    }

    /// Walks the in-place positions under `code`. `slots` is the env at
    /// `code`; `needs` holds the slots (absolute positions) that the
    /// continuation outside `code` can read.
    fn walk(&mut self, code: &Arc<Code>, slots: &mut Vec<Slot>, needs: &BTreeSet<usize>) {
        match &**code {
            // Values run nothing in place; captured and discarded loss
            // scopes refuse everything beneath them.
            Code::Const(_) | Code::Var(_) | Code::Lam(_) | Code::Zero | Code::Nil(_) => {}
            Code::Then { .. } | Code::Local { .. } | Code::Reset(_) => {}
            Code::OpCall { op, arg } => {
                self.walk(arg, slots, needs);
                if self.is_decision(op) {
                    self.site(code, slots, needs);
                }
            }
            Code::Cases { scrut, lbody, rbody } => {
                let mut n = needs.clone();
                Self::need(slots.len(), lbody, 1, &mut n);
                Self::need(slots.len(), rbody, 1, &mut n);
                self.walk(scrut, slots, &n);
                slots.push(Slot::Value);
                self.walk(lbody, slots, needs);
                self.walk(rbody, slots, needs);
                slots.pop();
            }
            Code::App(f, a) => {
                self.children(&[f, a], slots, needs);
                if let Code::Lam(body) = &**f {
                    let bound = match &**a {
                        Code::Lam(_) => Slot::Closure,
                        Code::Var(i) if *i < slots.len() => slots[slots.len() - 1 - i],
                        _ => Slot::Value,
                    };
                    slots.push(bound);
                    self.walk(body, slots, needs);
                    slots.pop();
                }
            }
            Code::Handle { handler, from, body } => {
                let mut inside = needs.clone();
                Self::need(slots.len(), &handler.ret_body, 2, &mut inside);
                for c in &handler.clauses {
                    if !self.is_decision(&c.op) {
                        Self::need(slots.len(), &c.body, 4, &mut inside);
                    }
                }
                let mut before = inside.clone();
                Self::need(slots.len(), body, 0, &mut before);
                self.walk(from, slots, &before);
                if self.handler_in_place(handler) {
                    self.walk(body, slots, &inside);
                    slots.extend([Slot::Value, Slot::Value]);
                    self.walk(&handler.ret_body, slots, needs);
                    slots.truncate(slots.len() - 2);
                }
            }
            Code::Tuple(es) => {
                let es: Vec<&Arc<Code>> = es.iter().collect();
                self.children(&es, slots, needs);
            }
            Code::Prim(_, a)
            | Code::Proj(a, _)
            | Code::Inl { e: a, .. }
            | Code::Inr { e: a, .. }
            | Code::Succ(a)
            | Code::Loss(a) => self.walk(a, slots, needs),
            Code::Cons(a, b) => self.children(&[a, b], slots, needs),
            Code::Iter(a, b, c) | Code::Fold(a, b, c) => self.children(&[a, b, c], slots, needs),
        }
    }

    /// Walks a node's children, evaluated left to right: while child `i`
    /// runs, the node's frame holds children `..i` (refused unless all
    /// are syntactic) and will read the free variables of every other
    /// child.
    fn children(&mut self, cs: &[&Arc<Code>], slots: &mut Vec<Slot>, needs: &BTreeSet<usize>) {
        for (i, c) in cs.iter().enumerate() {
            if !cs[..i].iter().all(|d| is_syntactic(d)) {
                return;
            }
            let mut n = needs.clone();
            for (j, d) in cs.iter().enumerate() {
                if j != i {
                    Self::need(slots.len(), d, 0, &mut n);
                }
            }
            self.walk(c, slots, &n);
        }
    }

    /// Records a decision site with live slots `needs`, unless one of
    /// them is statically a closure.
    fn site(&mut self, code: &Arc<Code>, slots: &[Slot], needs: &BTreeSet<usize>) {
        if needs.iter().any(|&p| slots[p] == Slot::Closure) {
            return;
        }
        let depth = slots.len();
        let mut live: Vec<u32> = needs.iter().map(|&p| (depth - 1 - p) as u32).collect();
        live.sort_unstable();
        let id = self.sites.sites.len() as u32;
        self.sites.sites.insert(Arc::as_ptr(code) as usize, MergeSite { id, live });
    }
}

/// Join of abstract values across branches.
fn join_val(a: AbsVal, b: AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Loss(x), AbsVal::Loss(y)) => AbsVal::Loss(x.join(y)),
        (AbsVal::Param, AbsVal::Param) => AbsVal::Param,
        (AbsVal::Resume, AbsVal::Resume) => AbsVal::Resume,
        (AbsVal::Probe, AbsVal::Probe) => AbsVal::Probe,
        (AbsVal::Tuple(xs), AbsVal::Tuple(ys)) if xs.len() == ys.len() => {
            AbsVal::Tuple(xs.into_iter().zip(ys).map(|(x, y)| join_val(x, y)).collect())
        }
        (AbsVal::Sum(l1, p1), AbsVal::Sum(l2, p2)) if l1 == l2 => {
            AbsVal::Sum(l1, Box::new(join_val(*p1, *p2)))
        }
        _ => AbsVal::Opaque,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::compile;
    use crate::testgen::{deep_decide_chain, gen_signature, ProgramGen};
    use crate::types::{Effect, Type};

    fn analyze_expr(e: &crate::syntax::Expr, ops: &[&str]) -> FlowReport {
        let prog = compile(e).expect("closed");
        analyze(&prog, ops)
    }

    #[test]
    fn interval_lattice_basics() {
        let five = LossAbs::constant(&LossVal::scalar(5.0));
        assert_eq!(five, LossAbs::Interval(0.0, 5.0));
        let neg = LossAbs::constant(&LossVal::scalar(-3.0));
        assert_eq!(neg, LossAbs::Interval(-3.0, 0.0));
        assert!(!neg.is_nonneg());
        assert_eq!(five.join(neg), LossAbs::Interval(-3.0, 5.0));
        assert_eq!(five.add(neg), LossAbs::Interval(-3.0, 5.0));
        assert_eq!(neg.neg(), LossAbs::Interval(0.0, 3.0));
        assert_eq!(LossAbs::constant(&LossVal::scalar(f64::NAN)), LossAbs::Top);
        assert_eq!(LossAbs::NonNeg.add(five), LossAbs::NonNeg);
        assert_eq!(LossAbs::Top.join(LossAbs::Bot), LossAbs::Top);
        assert!(LossAbs::Bot.join(neg).contains(&LossVal::scalar(-2.0)));
    }

    #[test]
    fn star_and_mul() {
        assert_eq!(LossAbs::zero().star(), LossAbs::zero());
        assert_eq!(LossAbs::Interval(0.0, 4.0).star(), LossAbs::NonNeg);
        assert_eq!(LossAbs::Interval(-1.0, 4.0).star(), LossAbs::Top);
        let a = LossAbs::Interval(0.0, 3.0);
        let b = LossAbs::Interval(-2.0, 0.0);
        assert_eq!(a.mul(b), LossAbs::Interval(-6.0, 0.0));
        assert_eq!(LossAbs::NonNeg.mul(a), LossAbs::NonNeg);
        assert_eq!(LossAbs::NonNeg.mul(b), LossAbs::Top);
    }

    #[test]
    fn constant_loss_is_certified() {
        let e = seq(Effect::empty(), Type::unit(), loss(lc(2.0)), loss(lc(3.0)));
        let r = analyze_expr(&e, &[]);
        assert!(r.certified(), "{:?}", r.violations);
        assert!(r.emitted.contains(&LossVal::scalar(5.0)));
        assert_eq!(r.shape, DecisionShape::zero());
    }

    #[test]
    fn negative_constant_is_refused() {
        let r = analyze_expr(&loss(lc(-1.0)), &[]);
        assert!(!r.certified());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].interval, LossAbs::Interval(-1.0, 0.0));
    }

    #[test]
    fn neg_and_sub_prims_are_refused() {
        let r = analyze_expr(&loss(prim1("neg", lc(3.0))), &[]);
        assert!(!r.certified());
        let r = analyze_expr(&loss(prim2("sub", lc(1.0), lc(4.0))), &[]);
        assert!(!r.certified());
        // ... but subtraction that stays provably non-negative only in
        // spirit is still refused: the interval keeps the negative part.
        let r = analyze_expr(&loss(prim2("sub", lc(4.0), lc(1.0))), &[]);
        assert!(!r.certified());
    }

    #[test]
    fn if_joins_branches() {
        let e = loss(if_(leq(lc(1.0), lc(2.0)), lc(3.0), lc(4.0)));
        let r = analyze_expr(&e, &[]);
        assert!(r.certified());
        assert!(r.emitted.contains(&LossVal::scalar(3.0)));
        assert!(r.emitted.contains(&LossVal::scalar(4.0)));
    }

    #[test]
    fn let_bound_loss_flows_precisely() {
        let eff = Effect::empty();
        let e = let_(eff.clone(), "x", Type::loss(), lc(2.0), loss(add(v("x"), lc(1.0))));
        let r = analyze_expr(&e, &[]);
        assert!(r.certified(), "{:?}", r.violations);
        let e = let_(eff, "x", Type::loss(), lc(-2.0), loss(v("x")));
        assert!(!analyze_expr(&e, &[]).certified());
    }

    #[test]
    fn then_folds_captures_into_the_verdict() {
        let eff = Effect::empty();
        // Verdict discarded: the captured negative never reaches ambient.
        let discarded = seq(
            eff.clone(),
            Type::loss(),
            then(loss(lc(-5.0)), eff.clone(), "x", Type::unit(), lc(0.0)),
            loss(lc(1.0)),
        );
        let r = analyze_expr(&discarded, &[]);
        assert!(r.certified(), "{:?}", r.violations);
        // Re-emitting the folded verdict ambiently is caught at that site.
        let leaked = loss(then(loss(lc(-5.0)), eff, "x", Type::unit(), lc(0.0)));
        assert!(!analyze_expr(&leaked, &[]).certified());
    }

    #[test]
    fn reset_discards_and_sets_purity() {
        let r = analyze_expr(&reset(loss(lc(-9.0))), &[]);
        assert!(r.certified(), "reset routes to junk: {:?}", r.violations);
        assert!(r.purity.resets);
        assert_eq!(r.emitted, LossAbs::zero());
    }

    #[test]
    fn escaping_closure_is_scanned() {
        // A lambda hiding a negative emission, passed to an unknown op:
        // must be refused even though the body is never applied here.
        let e = op("mystery", lam(Effect::empty(), "x", Type::unit(), loss(lc(-1.0))));
        let r = analyze_expr(&e, &[]);
        assert!(!r.certified());
        assert!(!r.violations.is_empty());
    }

    #[test]
    fn decision_shape_counts_chain() {
        let prog = compile(&deep_decide_chain(5).expr).unwrap();
        let r = analyze(&prog, &gen_signature().decision_ops());
        assert_eq!(r.shape, DecisionShape { min: 5, max: Some(5) });
        assert!(r.certified(), "{:?}", r.violations);
        assert!(r.certificate().unwrap().covers(&prog));
        // Probes live only in the (dead) decision clause.
        assert!(!r.purity.probes);
        assert!(r.purity.prefix_cache_safe());
    }

    #[test]
    fn certificate_is_tied_to_its_program() {
        let p1 = compile(&loss(lc(1.0))).unwrap();
        let p2 = compile(&loss(lc(1.0))).unwrap();
        let r = analyze(&p1, &[] as &[&str]);
        let cert = r.certificate().unwrap();
        assert!(cert.covers(&p1));
        assert!(!cert.covers(&p2), "identical syntax, different compilation");
    }

    #[test]
    fn counter_handler_mutates_param() {
        let eff = Effect::single("cnt");
        let body = seq(eff, Type::unit(), loss(op("tick", unit())), lc(0.0));
        let h = ProgramGen::new(0).cnt_handler(&Type::loss(), &Effect::empty());
        let prog = compile(&handle0(h, body)).unwrap();
        let r = analyze(&prog, &gen_signature().decision_ops());
        assert!(r.purity.mutates_param, "k(pair(Succ(p), ..)) mutates state");
        assert!(!r.purity.prefix_cache_safe());
        // `loss(tick())` emits an unknown op result: refused.
        assert!(!r.certified());
    }

    #[test]
    fn budget_exhaustion_is_inconclusive_not_wrong() {
        let prog = compile(&deep_decide_chain(8).expr).unwrap();
        let r = analyze_with(&prog, &gen_signature().decision_ops(), FlowConfig { budget: 10 });
        assert!(r.inconclusive);
        assert!(!r.certified());
    }

    /// `handle0(argmin, body)` under the decision op `decide`.
    fn merge_sites_of(body: crate::syntax::Expr) -> MergeSites {
        use crate::testgen::argmin_handler;
        let e = handle0(argmin_handler(&Type::loss(), &Effect::empty()), body);
        analyze_expr(&e, &["decide"]).merge
    }

    /// `let b = decide() in loss(if b then 1 else 2); tail`.
    fn decide_then(tail: crate::syntax::Expr) -> crate::syntax::Expr {
        let eamb = Effect::single("amb");
        let_(
            eamb.clone(),
            "b",
            Type::bool(),
            op("decide", unit()),
            seq(eamb, Type::unit(), loss(if_(v("b"), lc(1.0), lc(2.0))), tail),
        )
    }

    #[test]
    fn every_chain_site_is_keyed_with_no_live_slot() {
        // The let-lambda pending while each `decide` runs is static code
        // over the site's env, not a live closure: every site merges.
        let prog = compile(&deep_decide_chain(6).expr).unwrap();
        let merge = analyze(&prog, &gen_signature().decision_ops()).merge;
        assert_eq!(merge.len(), 6);
        assert!(merge.sites.values().all(|s| s.live.is_empty()), "{merge:?}");
    }

    #[test]
    fn a_later_read_of_an_earlier_decision_is_live() {
        let eamb = Effect::single("amb");
        // let a = decide() in let b = decide() in loss(if a then 1 else 2)
        let body = let_(
            eamb.clone(),
            "a",
            Type::bool(),
            op("decide", unit()),
            let_(
                eamb,
                "b",
                Type::bool(),
                op("decide", unit()),
                loss(if_(v("a"), lc(1.0), lc(2.0))),
            ),
        );
        let merge = merge_sites_of(body);
        let mut lives: Vec<Vec<u32>> = merge.sites.values().map(|s| s.live.clone()).collect();
        lives.sort();
        // The first site reads nothing later; the second reads `a`,
        // index 0 of its env.
        assert_eq!(lives, vec![vec![], vec![0]]);
    }

    #[test]
    fn a_site_under_then_gets_no_key() {
        let e0 = Effect::single("amb");
        assert_eq!(merge_sites_of(decide_then(lc(0.0))).len(), 1);
        let captured = then(decide_then(lc(0.0)), e0, "x", Type::loss(), v("x"));
        assert!(merge_sites_of(captured).is_empty());
    }

    #[test]
    fn a_site_with_a_live_closure_gets_no_key() {
        let e0 = Effect::single("amb");
        // let f = λx. x + 1 in (decide; f(1)): `f` is live at the site.
        let f = lam(Effect::empty(), "x", Type::loss(), add(v("x"), lc(1.0)));
        let uses_f = app(v("f"), lc(1.0));
        let fn_ty = Type::fun(Type::loss(), Type::loss(), Effect::empty());
        let body = let_(e0.clone(), "f", fn_ty.clone(), f.clone(), decide_then(uses_f));
        assert!(merge_sites_of(body).is_empty());
        // The same closure bound but dead at the site: keyed.
        let dead = let_(e0, "f", fn_ty, f, decide_then(lc(0.0)));
        assert_eq!(merge_sites_of(dead).len(), 1);
    }

    #[test]
    fn a_site_inside_a_lambda_not_applied_in_place_gets_no_key() {
        let e0 = Effect::single("amb");
        let g = lam(e0.clone(), "u", Type::unit(), decide_then(lc(0.0)));
        let fn_ty = Type::fun(Type::unit(), Type::loss(), e0.clone());
        let body = let_(e0, "g", fn_ty, g, app(v("g"), unit()));
        assert!(merge_sites_of(body).is_empty());
    }

    #[test]
    fn nan_loss_is_refused() {
        let r = analyze_expr(&loss(lc(f64::NAN)), &[]);
        assert!(!r.certified());
    }
}
