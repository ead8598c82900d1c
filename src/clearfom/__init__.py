"""clearfom: a multi-hierarchy CLEAR figure-of-merit toolkit.

CLEAR is capability divided by the product of latency, energy, amount and
resistance, each factor specialized per level: device, point-to-point link,
mesh network-on-chip and whole system. Factors are normalized against
physical ceilings for radar comparison; the resistance factor rides a
log-linear experience curve. Each public name is imported from the module
that defines it (``from clearfom.link import link_capacity``); importing the
package itself loads no module.
"""

__version__ = "0.1.0"
