"""Figure 6 / Example 6.1: the QSS walkthrough.

A subscription created 30Dec96 10:00am polls nightly at 11:30pm; the
golden pins the paper's notification sizes 2 / 0 / 1 at its three
polling times.
"""

from repro import QSSServer, Wrapper
from tests.paper import assert_artifact
from tests.qss.test_server import ScriptedGuideSource, example61_subscription

EXP_IDS = ("fig6_qss",)


def test_fig6_qss():
    server = QSSServer(start="30Dec96 10:00am", deliver_empty=True)
    server.register_wrapper("guide", Wrapper(ScriptedGuideSource(),
                                             name="guide"))
    server.subscribe(example61_subscription(), "guide")
    lines = [f"t{n.poll_index} = {n.polling_time}: "
             f"{len(n.result)} object(s)"
             for n in server.run_until("2Jan97")]
    assert_artifact("fig6_qss",
                    "Example 6.1 notification timeline "
                    "(paper expects 2 / 0 / 1):\n" + "\n".join(lines))
