"""Every size and work limit, noted with what it bounds and the largest input
a test, the bench or CI runs under it; a module imports the limits it reads."""

# degree of a 3^n outcome-table scan by default; verify all scans LongestRun(12)
PROFILE_SCAN_CAP = 12
# members per window of the intersection check's voter masks; tier-1 checks 16
FAMILY_WINDOW = 1 << 12
# voters listed over a CCC's or coalition document's members; CCC(100,100): 1,990,000
CCC_MAX_ENTRIES = 1 << 21
# members of a coalition document (its check is quadratic); tier-1 checks 65,536
FAMILY_MAX_MEMBERS = 1 << 16
# voters of a rule document, tree or plane (a CCC grid has < 10,400); CI analyzes 16,384
MAX_DEGREE = 1 << 14
# order x degree of a group's chain or element walk; PGL(2,31) has 952,320
MAX_GROUP_ENTRIES = 1 << 20
# degree of the n! automorphism search by default; the bench searches 8 voters
FACTORIAL_CAP = 8
# degree of the n! seatings of the assignment classes; tier-1 seats 5 voters
ASSIGNMENT_CAP = 5
# degree of the 2^n binary pivotality scan; CI scans LongestRun(20)
PIVOT_BINARY_CAP = 20
# subsets a coalition search may decide; CI's 1,414-voter fan decides 1,000,405
COALITION_BUDGET = 2_000_000
# minimal winning coalitions kept per search; the bench's Majority(19) fills it
WITNESS_LIMIT = 20_000
# profiles per kernel block; CI's LongestRun(15) table takes 729 blocks of 3^9
BATCH_ROWS = 1 << 15
# bytes of cached outcome tables; CI's LongestRun(15) table holds 14,348,907
_TABLE_CACHE_BYTES = 32 << 20
# --caps scan and factorial; CI runs LongestRun(15), and each degree up triples work
SCAN_CAP_LIMIT = 15
# draws of the randomized intersecting-set construction; CI's cyclic(1000) needs 1
MAX_ATTEMPTS = 64


def refuse_above(value: int, limit: int, what: str) -> int:
    """The value, or a ValueError saying that what it counts is over the limit."""
    if value > limit:
        raise ValueError(f"{what}, above the limit of {limit}")
    return value
