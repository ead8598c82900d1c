"""clearfom: a multi-hierarchy CLEAR figure-of-merit toolkit.

CLEAR is capability divided by the product of latency, energy, amount, and
resistance, each factor specialized per hierarchy level: single devices,
point-to-point interconnect links, mesh networks-on-chip, and whole compute
systems. Factors are normalized against first-principles physical ceilings
for radar comparison, and the economic resistance factor rides a log-linear
experience curve.

The names re-exported here resolve lazily (PEP 562): ``from clearfom import
link_capacity`` imports :mod:`clearfom.link` on first use, not when the package
is imported, and each CLI subcommand loads only the modules it runs. The
runtime needs only the standard library; numpy loads only to build the dense
``rates`` of generated traffic in :mod:`clearfom.network`.
"""

__version__ = "0.1.0"

# Re-exported name -> defining submodule.
_EXPORTS = {
    **dict.fromkeys(("BOLTZMANN_K", "ELECTRON_MASS", "LIGHT_SPEED_VACUUM", "PLANCK_H",
                     "REDUCED_PLANCK", "SILICON_DENSITY"), "constants"),
    **dict.fromkeys(("DeviceSpec", "device_clear", "radar_normalize"), "device"),
    **dict.fromkeys(("ExperienceCurve", "GrowthFit", "fit_experience_curve",
                     "load_cost_observations", "unit_cost"), "economics"),
    **dict.fromkeys(("ClearError", "ConfigurationError", "DomainError",
                     "InfeasibleLinkError", "InsufficientDataError"), "errors"),
    **dict.fromkeys(("bremermann_rate", "heisenberg_min_length", "landauer_energy",
                     "make_limit_set", "margolus_levitin_rate", "time_of_flight_rate_limit"),
                    "limits"),
    **dict.fromkeys(("ElectricalTransport", "LinkComponent", "LinkSpec", "OpticalTransport",
                     "link_area", "link_capacity", "link_energy_per_bit",
                     "p2p_latency", "repeater_count"), "link"),
    **dict.fromkeys(("Axes", "ClearValue", "Level", "Technology", "radar_area"), "metric"),
    **dict.fromkeys(("MeshTopology", "NocConfig", "TrafficMatrix", "add_express_links",
                     "build_mesh", "flit_sweep", "generate_traffic", "link_activity",
                     "network_clear"), "network"),
    **dict.fromkeys(("SystemRecord", "classify_vs_trend", "efficiency_point", "fit_growth",
                     "system_clear"), "trend"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
