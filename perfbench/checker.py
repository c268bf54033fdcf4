"""Answer checks, run after the timed loop and never timed.

Every answer must make the preferred candidate win, must report the cost of
its own witness, and must lie within the paper's envelope of a known
optimum.  The optimum is the theorem6 closed form 2kT = 4k^2, or for
requests that ask for it, the brute-force oracle's value.
"""

import hashlib
import json

from workloads import ENVELOPES


def check_answer(sb, request, answer):
    """None if ``answer`` is right for ``request``, else the reason."""
    if isinstance(answer, BaseException):
        return f"raised {type(answer).__name__}: {answer}"
    cost, action = answer
    inst = sb.parse_instance(request.text)
    if not sb.is_successful(inst, action):
        return "the preferred candidate does not win"
    if cost != sb.total_cost(inst, action):
        return f"reported cost {cost} != witness cost {sb.total_cost(inst, action)}"
    opt = request.opt
    if request.needs_opt:
        opt = sb.exact_shift_opt(inst)[0]
    if opt is None:
        return None
    if cost < opt:
        return f"cost {cost} is below the optimum {opt}"
    factor = ENVELOPES.get(request.kind)
    if factor is not None and cost > factor * opt:
        return f"cost {cost} exceeds {factor} x optimum {opt}"
    return None


def answers_sha(pool, answers) -> str:
    """Digest of the (cost, witness) pairs, in pool order."""
    rows = [
        [req.kind, ans[0], list(ans[1])] if not isinstance(ans, BaseException) else None
        for req, ans in zip(pool, answers)
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
