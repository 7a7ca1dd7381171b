//! Failure injection: every user-facing error path of the calculus
//! implementation — ill-typed programs, malformed signatures, unhandled
//! operations, fuel exhaustion — surfaces as a structured error (never a
//! panic) with an actionable message.

use lambda_c::build::*;
use lambda_c::sig::{OpSig, SigError, Signature};
use lambda_c::smallstep::EvalError;
use lambda_c::syntax::Expr;
use lambda_c::typecheck::check_program;
use lambda_c::types::{Effect, Type};

fn amb_sig() -> Signature {
    let mut sig = Signature::new();
    sig.declare("amb", vec![("decide".into(), OpSig { arg: Type::unit(), ret: Type::bool() })])
        .unwrap();
    sig
}

#[test]
fn unbound_variable_is_reported_by_name() {
    let sig = Signature::new();
    let err = check_program(&sig, &v("ghost"), &Effect::empty()).unwrap_err();
    assert!(err.0.contains("ghost"), "{err}");
}

#[test]
fn operation_outside_its_effect_is_rejected() {
    let sig = amb_sig();
    let e = op("decide", unit());
    let err = check_program(&sig, &e, &Effect::empty()).unwrap_err();
    assert!(err.0.contains("decide"), "{err}");
    assert!(err.0.contains("not allowed"), "{err}");
}

#[test]
fn unknown_operation_is_rejected() {
    let sig = amb_sig();
    let e = op("teleport", unit());
    let err = check_program(&sig, &e, &Effect::single("amb")).unwrap_err();
    assert!(err.0.contains("teleport"), "{err}");
}

#[test]
fn wrong_operation_argument_type() {
    let sig = amb_sig();
    let e = op("decide", lc(1.0));
    let err = check_program(&sig, &e, &Effect::single("amb")).unwrap_err();
    assert!(err.0.contains("expects"), "{err}");
}

#[test]
fn loss_of_non_loss_rejected() {
    let sig = Signature::new();
    let err = check_program(&sig, &loss(unit()), &Effect::empty()).unwrap_err();
    assert!(err.0.contains("loss"), "{err}");
}

#[test]
fn application_mismatches() {
    let sig = Signature::new();
    // non-function applied
    let e = app(lc(1.0), lc(2.0));
    assert!(check_program(&sig, &e, &Effect::empty()).is_err());
    // wrong argument type
    let f = lam(Effect::empty(), "x", Type::bool(), v("x"));
    let e = app(f, lc(2.0));
    assert!(check_program(&sig, &e, &Effect::empty()).is_err());
}

#[test]
fn handler_must_enumerate_all_operations() {
    let mut sig = Signature::new();
    sig.declare(
        "duo",
        vec![
            ("one".into(), OpSig { arg: Type::unit(), ret: Type::unit() }),
            ("two".into(), OpSig { arg: Type::unit(), ret: Type::unit() }),
        ],
    )
    .unwrap();
    // handler defining only `one`
    let h = HandlerBuilder::new("duo", Type::unit(), Type::unit(), Effect::empty())
        .on("one", "p", "x", "l", "k", app(v("k"), pair(v("p"), unit())))
        .build();
    let e = handle0(h, op("one", unit()));
    let err = check_program(&sig, &e, &Effect::empty()).unwrap_err();
    assert!(err.0.contains("exactly 2 operations"), "{err}");
}

#[test]
fn handler_for_unknown_label_rejected() {
    let sig = Signature::new();
    let h = HandlerBuilder::new("nope", Type::unit(), Type::unit(), Effect::empty())
        .on("op", "p", "x", "l", "k", unit())
        .build();
    let e = handle0(h, unit());
    let err = check_program(&sig, &e, &Effect::empty()).unwrap_err();
    assert!(err.0.contains("nope"), "{err}");
}

#[test]
fn handler_effect_must_match_ambient() {
    let sig = amb_sig();
    // handler annotated with result effect {amb} used at ambient {}
    let h = HandlerBuilder::new("amb", Type::bool(), Type::bool(), Effect::single("amb"))
        .on("decide", "p", "x", "l", "k", app(v("k"), pair(v("p"), Expr::tt())))
        .build();
    let e = handle0(h, op("decide", unit()));
    let err = check_program(&sig, &e, &Effect::empty()).unwrap_err();
    assert!(err.0.contains("ambient"), "{err}");
}

#[test]
fn local_with_wrong_domain_rejected() {
    let sig = Signature::new();
    // localized expr has type loss, but continuation expects bool
    let e = Expr::Local {
        eff: Effect::empty(),
        g: Expr::zero_cont(Type::bool(), Effect::empty()).rc(),
        e: lc(1.0).rc(),
    };
    let err = check_program(&sig, &e, &Effect::empty()).unwrap_err();
    assert!(err.0.contains("domain"), "{err}");
}

#[test]
fn local_annotation_must_be_within_ambient() {
    let sig = amb_sig();
    let e = Expr::Local {
        eff: Effect::single("amb"),
        g: Expr::zero_cont(Type::bool(), Effect::empty()).rc(),
        e: op("decide", unit()).rc(),
    };
    // ambient {} but annotation {amb}
    let err = check_program(&sig, &e, &Effect::empty()).unwrap_err();
    assert!(err.0.contains("not included"), "{err}");
}

#[test]
fn then_body_must_return_loss() {
    let sig = Signature::new();
    let e = then(lc(1.0), Effect::empty(), "x", Type::loss(), unit());
    let err = check_program(&sig, &e, &Effect::empty()).unwrap_err();
    assert!(err.0.contains("loss"), "{err}");
}

#[test]
fn signature_errors_display_cleanly() {
    let mut sig = Signature::new();
    assert_eq!(sig.declare("e", vec![]).unwrap_err().to_string(), "effect `e` has no operations");
    sig.declare("a", vec![("f".into(), OpSig { arg: Type::unit(), ret: Type::unit() })]).unwrap();
    assert_eq!(
        sig.declare("b", vec![("f".into(), OpSig { arg: Type::unit(), ret: Type::unit() })])
            .unwrap_err()
            .to_string(),
        "operation `f` declared twice"
    );
}

#[test]
fn fuel_error_reports_step_count() {
    let ex = lambda_c::examples::moo_divergent();
    let g = Expr::zero_cont(ex.ty.clone(), ex.eff.clone()).rc();
    match lambda_c::eval(&ex.sig, &g, &ex.eff, ex.expr, 150) {
        Err(EvalError::OutOfFuel { steps }) => assert_eq!(steps, 150),
        other => panic!("expected OutOfFuel, got {other:?}"),
    }
}

#[test]
fn unhandled_op_reported_in_big_step_outcome() {
    let sig = amb_sig();
    let out =
        lambda_c::eval_closed(&sig, op("decide", unit()), Type::bool(), Effect::single("amb"))
            .unwrap();
    assert_eq!(out.stuck_on.as_deref(), Some("decide"));
    assert!(!out.is_value());
}

#[test]
fn runtime_errors_on_ill_typed_terms_are_structured() {
    // Deliberately bypass the typechecker: project from a non-tuple.
    let sig = Signature::new();
    let e = proj(lc(1.0), 0);
    let g = Expr::zero_cont(Type::loss(), Effect::empty()).rc();
    match lambda_c::step(&sig, &g, &Effect::empty(), &e) {
        Err(EvalError::Malformed(msg)) => assert!(msg.contains("projection"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn well_foundedness_reports_the_cycle() {
    let ex = lambda_c::examples::moo_divergent();
    match ex.sig.check_well_founded() {
        Err(SigError::NotWellFounded(cycle)) => {
            assert!(cycle.iter().any(|l| l == "cow"));
            assert!(ex.sig.check_well_founded().unwrap_err().to_string().contains("cow"));
        }
        other => panic!("expected NotWellFounded, got {other:?}"),
    }
}

#[test]
fn machine_reports_ill_shaped_nodes_as_malformed() {
    // Compilation checks only scoping, so ill-typed programs reach the
    // machine: each must fail its own run with a structured error.
    use lambda_c::compile::compile;
    use lambda_c::machine::{self, MachError};
    let e0 = Effect::empty();
    let k_of_unit = HandlerBuilder::new("amb", Type::unit(), Type::unit(), e0.clone())
        .on("decide", "p", "x", "l", "k", app(v("k"), unit()))
        .build();
    let cases = [
        (proj(lc(1.0), 0), "projection"),
        (Expr::Succ(ch('a').rc()), "succ"),
        (Expr::Cons(lc(1.0).rc(), lc(2.0).rc()), "cons"),
        (if_(lc(1.0), unit(), unit()), "cases"),
        (loss(ch('a')), "loss"),
        (app(lc(1.0), lc(2.0)), "application"),
        (Expr::Iter(lc(1.0).rc(), lc(0.0).rc(), lc(0.0).rc()), "iter"),
        (Expr::Fold(lc(1.0).rc(), lc(0.0).rc(), lc(0.0).rc()), "fold"),
        (handle0(k_of_unit, op("decide", unit())), "handler continuation"),
    ];
    for (e, what) in cases {
        match machine::run(&compile(&e).unwrap()) {
            Err(MachError::Malformed(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected Malformed for {what}, got {other:?}"),
        }
    }
}
