"""dfp: a desk-scale, layered, service-oriented vehicle software stack.

Layers, bottom up:

- ``dfp.hal``        simulated hardware abstraction (devices, frames, normalization)
- ``dfp.middleware`` pub/sub + client/server with QoS, zero-copy in-process
  transport, DFP1-framed lossy loopback transport, and dynamic discovery
- ``dfp.funcsw``     data-flow task graphs wired once: grouping, binding,
  deterministic scheduling rounds, lifecycle management
- ``dfp.envmodel``   classified environment records with CRUD, fuzzy token
  queries and saved ODD definitions
- ``dfp.modemgr``    coordinated finite state machines for system modes
- ``dfp.acc``        adaptive cruise control demo built on the SDK surfaces
- ``dfp.runtime``    full-stack assembly from a JSON system config
- ``dfp.cli``        the ``dfpctl`` command line harness
"""

class DfpError(Exception):
    """Base class for all stack errors."""


class ConfigurationError(DfpError):
    """Invalid system configuration; maps to CLI exit code 2."""


class RuntimeFault(DfpError):
    """Fault raised while a configured system is running; CLI exit code 1."""


__all__ = ["DfpError", "ConfigurationError", "RuntimeFault"]
__version__ = "0.1.0"
