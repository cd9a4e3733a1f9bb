"""archsim: deterministic grid microsimulation of pedestrian egress.

Agents drain a long corridor through a centered exit while comparing
themselves to similar neighbors inside a 100-degree vision cone; the
package detects the arch-shaped clogs that form at the exit, measures
their onset time and axes, and sweeps crowd size against exit width to
quantify how those quantities scale.  The modules are the API.
"""

__version__ = "0.1.0"
