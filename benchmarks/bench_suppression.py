"""§8 targeted suppression and history suppression.

* Targeted: the conservative free checker's two documented false-positive
  classes (debug printers; &v reinitializers) disappear with the
  checker-local suppression ("We added eight lines of code").
* History: reports judged false in version N stay suppressed in version
  N+1 despite edits that move every line number.

The checker-local suppressions are rules of their own metal text
(checkers/metal/free_suppressed.metal); history suppression runs on the
consolidated triage path (repro.reports.triage) as a TriageStore
history-kind entry (HistoryDatabase is a façade over the same store).
"""

from conftest import analyze

from repro.checkers.free import free_checker, suppressed_free_checker
from repro.engine.history import HistoryDatabase
from repro.reports.triage import TriageStore

FP_CODE = """
int debug_path(int *p) {
    kfree(p);
    printk(p);          /* FP class 1: debug print of freed pointer */
    return 0;
}
int bsd_path(int *p) {
    kfree(p);
    reinit(&p);         /* FP class 2: address passed to reinitializer */
    return *p;
}
int real_bug(int *p) {
    kfree(p);
    return *p;          /* genuine use-after-free */
}
"""


def conservative_free():
    """A deliberately conservative variant: ANY use of a freed pointer
    (deref or argument) is an error -- the §8 starting point."""
    from repro.cfront import astnodes as ast
    from repro.metal import ANY_POINTER, Extension
    from repro.metal.patterns import Callout

    ext = Extension("free_checker")
    ext.state_var("v", ANY_POINTER)
    ext.transition("start", "{ kfree(v) }", to="v.freed")

    def any_use(context):
        obj = context.bindings.get("v")
        point = context.point
        if obj is None:
            return False
        if isinstance(point, ast.Call):
            key = ast.structural_key(obj)
            addr = ast.structural_key(ast.Unary("&", obj))
            return any(
                ast.structural_key(a) in (key, addr) for a in point.args
            )
        from repro.metal.callouts import mc_is_deref_of

        return mc_is_deref_of(point, obj)

    ext.transition(
        "v.freed", Callout(any_use, "any use"), to="v.stop",
        action=lambda ctx: ctx.err("using %s after free!", ctx.identifier("v")),
    )
    return ext


def test_targeted_suppression(benchmark):
    conservative_result, __ = analyze(FP_CODE, conservative_free())
    suppressed_result, __ = analyze(FP_CODE, suppressed_free_checker())

    conservative_fns = sorted(r.function for r in conservative_result.reports)
    suppressed_fns = sorted(r.function for r in suppressed_result.reports)

    print("\ntargeted suppression (§8):")
    print("  conservative checker flags: %s" % conservative_fns)
    print("  suppressed checker flags:   %s" % suppressed_fns)

    assert "debug_path" in conservative_fns
    assert "bsd_path" in conservative_fns
    assert suppressed_fns == ["real_bug"]

    benchmark(analyze, FP_CODE, suppressed_free_checker())


V1 = """
int f(int *p) {
    kfree(p);
    debug_dump(p);
    return 0;
}
"""

V2 = """
/* version 2: a refactor added 40 lines of new code above f */
int shiny_new_feature(int x) { return x * 2; }

int f(int *p) {
    kfree(p);
    debug_dump(p);
    return 0;
}
int g(int *q) {
    kfree(q);
    return *q;
}
"""


def test_history_suppression(benchmark):
    checker = conservative_free()
    v1_result, __ = analyze(V1, checker, filename="dev.c")
    assert len(v1_result.reports) == 1

    triage = TriageStore()
    triage.suppress_history(  # inspected: false positive
        v1_result.reports[0].history_key(), reason="debug print"
    )
    # The legacy façade reads the same store: one predicate, one format.
    assert HistoryDatabase(triage).is_suppressed(v1_result.reports[0])

    def analyze_v2():
        result, __ = analyze(V2, conservative_free(), filename="dev.c")
        return triage.filter(result.reports)

    surviving = benchmark(analyze_v2)
    print("\nhistory suppression across versions:")
    print("  v1 reports: 1 (marked FP after inspection)")
    print("  v2 raw reports: 2; after history filter: %d (%s)"
          % (len(surviving), [r.function for r in surviving]))
    assert [r.function for r in surviving] == ["g"]
