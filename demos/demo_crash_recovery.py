"""Undo logging under the microscope: crash at every point, recover.

    python demos/demo_crash_recovery.py
"""

from topocbt import FailurePlan, SimulatedCrash, TopoCbtEngine, car_trading


def fresh():
    scen = car_trading()
    fed = scen.build_federation()
    return fed, scen.transactions()[0], TopoCbtEngine(fed)


def describe(wal):
    for rec in wal.records:
        extra = ""
        if rec.block_ref is not None:
            moves = ", ".join(f"{u.owner_from}->{u.owner_to} {u.amount} {u.asset}" for u in rec.updates)
            extra = f" planned block {rec.block_ref}: {moves}"
        print(f"    seq {rec.sequence}  txn {rec.txn_id}  {rec.kind.name}{extra}")


def main():
    print("The deal has three sub-transactions, so a clean run writes")
    print("three undo records and one commit record:\n")
    fed, txn, engine = fresh()
    engine.execute(txn)
    describe(engine.wal)

    print("\nNow kill the process at every in-between point and restart:")
    for kind in ("crash_after_record", "crash_after_append"):
        for point in (1, 2, 3):
            fed, txn, engine = fresh()
            pre = fed.state_digest()
            try:
                engine.execute(txn, FailurePlan(((kind, point),)))
            except SimulatedCrash as crash:
                report = engine.recover()
                restored = fed.state_digest() == pre
                print(f"  {kind}={point}: crash '{crash}', "
                      f"recovery rolled back {list(report.rolled_back)}, "
                      f"pre-state restored: {restored}")

    print("\nCrash after the commit record is different: the decision is")
    print("already durable, so recovery must keep it.")
    fed, txn, engine = fresh()
    try:
        engine.execute(txn, FailurePlan((("crash_after_record", 4),)))
    except SimulatedCrash:
        report = engine.recover()
        print(f"  committed untouched: {list(report.committed_untouched)}, "
              f"alice has the car: {fed.balance('alice', 'CAR') == 1}")

    print("\nRecovery is idempotent: a second pass is a no-op.")
    fed, txn, engine = fresh()
    try:
        engine.execute(txn, FailurePlan((("crash_after_record", 2),)))
    except SimulatedCrash:
        engine.recover()
        digest = fed.state_digest()
        again = engine.recover()
        print(f"  second recover changed nothing: {again.is_noop() and fed.state_digest() == digest}")

    print("\nFinal log after one crashed run (note the appended abort):")
    describe(engine.wal)


if __name__ == "__main__":
    main()
