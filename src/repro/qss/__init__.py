"""QSS: the Query Subscription Service (Section 6).

A subscription ``S = (f, Ql, Qc)`` consists of a frequency specification
``f`` (when to poll), a Lorel *polling query* ``Ql`` (what to fetch from
the source), and a Chorel *filter query* ``Qc`` (which data and changes to
report).  At every polling time the server queries the source through a
Tsimmis-style wrapper, diffs the new result against the previous one,
folds the changes into the subscription's DOEM database, evaluates the
filter query (with the special time variables ``t[0]``, ``t[-1]``, ...),
and notifies the client.

The module layout follows Figure 7:

* :mod:`~repro.qss.frequency` -- frequency specifications;
* :mod:`~repro.qss.wrapper` -- the wrapper/mediator interface to sources;
* :mod:`~repro.qss.subscription` -- subscriptions and notifications;
* :mod:`~repro.qss.managers` -- Subscription/Query/DOEM managers and the
  Chorel engine wiring;
* :mod:`~repro.qss.server` / :mod:`~repro.qss.client` -- the QSS server
  loop (simulated clock) and the QSC client.
"""

from .frequency import FrequencySpec
from .subscription import Notification, Subscription
from .wrapper import Wrapper
from .managers import DOEMManager, QueryManager, SubscriptionManager
from .server import PollTimeout, QSSServer
from .client import QSC

__all__ = ["FrequencySpec", "Subscription", "Notification", "Wrapper",
           "SubscriptionManager", "QueryManager", "DOEMManager",
           "QSSServer", "PollTimeout", "QSC"]
