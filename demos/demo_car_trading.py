"""The car-trading deal under all three protocols, with and without
misbehavior.

Alice holds ETH, Bob holds BTC, Cindy holds a car title; each asset
lives on its own chain.  Alice wants the car, Cindy only takes BTC.

    python demos/demo_car_trading.py
"""

from topocbt import (
    Chain,
    FailurePlan,
    TopoCbtEngine,
    ac2s_execute,
    ac3wn_execute,
    car_trading,
)
from topocbt.baselines import WITNESS_CHAIN_ID


def show_balances(fed, label):
    print(f"  {label}:")
    for party in ("alice", "bob", "cindy"):
        held = {asset: v for (p, asset), v in fed.balances().items() if p == party and v}
        print(f"    {party:<6} {held}")


def fresh():
    scen = car_trading()
    return scen, scen.build_federation(), scen.transactions()[0]


def main():
    print("=" * 64)
    print("Clean runs: every protocol should deliver the same end state")
    print("=" * 64)
    scen, fed, txn = fresh()
    out = TopoCbtEngine(fed).execute(txn)
    print(f"\nmain engine: {out.status} ({out.primitive_ops} ops, {out.messages} messages)")
    show_balances(fed, "after")

    scen, fed, txn = fresh()
    out = ac2s_execute(fed, txn)
    print(f"\npairwise swaps: {out.status}")
    show_balances(fed, "after")

    scen, fed, txn = fresh()
    witness = Chain(WITNESS_CHAIN_ID)
    out = ac3wn_execute(fed, txn, witness=witness)
    print(f"\nwitness 2PC: {out.status} "
          f"(decision chain holds {len(witness.all_refs()) - 1} records)")
    show_balances(fed, "after")

    print()
    print("=" * 64)
    print("Cindy walks away after the first exchange")
    print("=" * 64)
    walk = FailurePlan(walk_away="cindy")

    scen, fed, txn = fresh()
    out = ac2s_execute(fed, txn, walk)
    print(f"\npairwise swaps: {out.status}, worse off: {list(out.worse_off_parties)}")
    show_balances(fed, "stranded")
    print("  alice swapped her ETH for BTC to pay cindy; with cindy gone")
    print("  there is no global rollback, so alice is stuck holding BTC")

    scen, fed, txn = fresh()
    pre = fed.state_digest()
    out = TopoCbtEngine(fed).execute(
        txn, FailurePlan(face_failures=((3, "update_failure"),))
    )
    print(f"\nmain engine, same misbehavior as an update failure: {out.status}")
    print(f"  state digest restored: {fed.state_digest() == pre}")
    show_balances(fed, "rolled back")

    print()
    print("=" * 64)
    print("Coordinator dies after the prepare phase")
    print("=" * 64)
    scen, fed, txn = fresh()
    out = ac3wn_execute(fed, txn, FailurePlan(witness_crash=True))
    print(f"\nwitness 2PC: {out.status}, locks still held: {len(fed.locks)}")
    print("  participants voted yes and now wait for a decision that")
    print("  will never arrive: the protocol blocks")

    scen, fed, txn = fresh()
    engine = TopoCbtEngine(fed)
    try:
        engine.execute(txn, FailurePlan(face_failures=((3, "crash_before_commit"),)))
    except Exception as crash:
        print(f"\nmain engine, crash injected mid-transaction: {crash}")
        report = engine.recover()
        print(f"  recovery rolled back {list(report.rolled_back)}, "
              f"cleared {report.locks_cleared} locks; no blocking")
        show_balances(fed, "after restart")


if __name__ == "__main__":
    main()
