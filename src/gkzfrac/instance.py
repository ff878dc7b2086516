"""One input of the pipeline: fan, system, order and checked weight, with
the artifacts that several checks or commands read built on first use.

Only the layers every command past ``validate`` needs are imported here;
the series, polytope, triangulation and degeneracy layers are imported by
the properties that use them, so a command loads only what it runs.
"""

from functools import cached_property

from . import gkz
from . import toric


class Instance:
    """One input: fan, system, order and checked weight (the one passed in,
    else the fan's own, else the default lift).  Artifacts that several
    checks or commands read are built on first use and kept."""

    def __init__(self, fan, order, omega=None):
        self.fan = fan
        self.sys = gkz.build_system(fan)
        self.order = order
        if omega is None:
            omega = fan.ample_weight or gkz.default_weight(self.sys)
        self.omega = gkz.check_weight(self.sys, omega)

    @cached_property
    def ring(self):
        return toric.cohomology_ring(self.fan, self.sys.collections)

    @cached_property
    def nablas(self):
        """The dual nef blocks, with their sum and the section polytopes."""
        from . import polytopes as pt
        return pt.dual_nef_partition(self.fan)

    @property
    def nabla(self):
        """Minkowski sum of the dual nef blocks."""
        return self.nablas.nabla

    @cached_property
    def points(self):
        from . import triangulations as tr
        return tr.PointConfiguration.from_system(self.sys)

    @cached_property
    def tmax(self):
        from . import triangulations as tr
        return tr.maximal_triangulation(self.sys, self.fan)

    @cached_property
    def charts(self):
        from . import degeneracy as dg
        return dg.subdivide_kahler_cone(self.sys)

    @cached_property
    def region_slab(self):
        """The summation-region slab up to the order, sorted by weight
        degree; the period and the region checks walk it."""
        from . import series as se
        return se.region_slab(self.sys, self.omega, self.order)

    @cached_property
    def chart_coordinates(self):
        """Each chart with its ``{ell: m}`` on the region slab."""
        from . import degeneracy as dg
        return [(c, dg.chart_coordinates(self.sys, c, self.region_slab))
                for c in self.charts]

    @cached_property
    def period(self):
        from . import series as se
        return se.normalized_period_series(self.sys, self.omega, self.order,
                                           self.region_slab)

    @cached_property
    def gamma(self):
        """The period signed by the quotient parity: the series that
        annihilation and the certificate read."""
        from . import series as se
        return se.gamma_series(self.period)

    @cached_property
    def b(self):
        """The cohomology-valued series."""
        from . import series as se
        return se.b_series(self.sys, self.ring, self.omega, self.order)

    @cached_property
    def pairings(self):
        """Dual-basis pairings of the cohomology-valued series, stacked:
        one coordinate tuple per term, keyed by lattice offsets, in the
        dim H^2 logs of the first chart (``degeneracy.chart_pairings``);
        ``bseries`` expands them in the ``nvars`` slot logs instead.  They
        serve every chart: another chart's logs are a unimodular integer
        transform of these, which keeps the log-free combinations."""
        from . import degeneracy as dg
        return dg.chart_pairings(self.sys, self.ring, self.charts[0], self.b)
