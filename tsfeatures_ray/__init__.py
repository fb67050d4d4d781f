"""tsfeatures_ray: a Ray-Data-native time-series rollup + feature engine.

From-scratch engine with the query/feature semantics of Nixtla/tsfeatures
(reference at /root/reference, studied for behavior only), built as
ray.data.Dataset pipelines of map_batches over zero-copy Arrow batches:

- ``kernels``   feature kernels in NumPy + BLAS-free compiled loops (reference parity)
- ``sources``   deterministic synthetic transcript table + readers
- ``stages``    Ray Data pipeline stages (derive, rollup, gap-fill, pack,
                feature actor pool, compression codecs)
- ``pipelines`` end-to-end pipelines (flagship rollup+features)
- ``functions`` large-scale training-data ops (dedup, text analysis,
                similarity search, multimodal stubs)
- ``state``     lineage manifest + resumable runs

Nothing in this package calls ray.init()/ray.shutdown(); sessions are
owned by bench.py / the test fixture / the driver.
"""

from .kernels import (  # noqa: F401
    ALL_FEATURES,
    DEFAULT_FEATURES,
    FREQS,
    compute_features,
)

__version__ = "0.1.0"
