"""The public API surface: everything the README promises must import and
work from the top-level package."""

import importlib
import inspect
import typing

import pytest

import repro
from repro import (
    MovingObjectState,
    MovingQuery,
    QuadTreeConfig,
    ScanIndex,
    StripesConfig,
    StripesIndex,
    TimeSliceQuery,
    WindowQuery,
)


class TestExports:
    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.bench
        import repro.core
        import repro.query
        import repro.storage
        import repro.tpr
        import repro.workload
        assert repro.tpr.TPRStarTree
        assert repro.workload.generate_workload


class TestReadmeQuickstart:
    def test_quickstart_flow(self):
        index = StripesIndex(StripesConfig(vmax=(3.0, 3.0),
                                           pmax=(1000.0, 1000.0),
                                           lifetime=120.0))
        index.insert(MovingObjectState(oid=1, pos=(100.0, 200.0),
                                       vel=(1.5, -2.0), t=0.0))
        hits = index.query(TimeSliceQuery((0.0, 0.0), (500.0, 500.0),
                                          t=60.0))
        assert hits == [1]

    def test_all_query_types_accepted(self):
        index = StripesIndex(StripesConfig(vmax=(3.0, 3.0),
                                           pmax=(100.0, 100.0),
                                           lifetime=60.0))
        index.insert(MovingObjectState(1, (50.0, 50.0), (0.0, 0.0), 0.0))
        queries = [
            TimeSliceQuery((0.0, 0.0), (100.0, 100.0), 5.0),
            WindowQuery((0.0, 0.0), (100.0, 100.0), 5.0, 10.0),
            MovingQuery((0.0, 0.0), (100.0, 100.0),
                        (10.0, 10.0), (110.0, 110.0), 5.0, 10.0),
        ]
        for query in queries:
            assert index.query(query) == [1]

    def test_custom_quadtree_config(self):
        config = StripesConfig(vmax=(3.0, 3.0), pmax=(100.0, 100.0),
                               lifetime=60.0,
                               quadtree=QuadTreeConfig(max_depth=5,
                                                       use_small_leaves=False))
        index = StripesIndex(config)
        index.insert(MovingObjectState(1, (1.0, 1.0), (0.0, 0.0), 0.0))
        assert len(index) == 1

    def test_scan_index_exported_interface(self):
        scan = ScanIndex(lifetime=60.0)
        scan.insert(MovingObjectState(1, (1.0, 1.0), (0.0, 0.0), 0.0))
        assert scan.query(TimeSliceQuery((0.0, 0.0), (2.0, 2.0), 0.0)) == [1]


class TestTypeHints:
    """Every public method's annotations must resolve: a name used in an
    annotation but never imported only fails when something (a docs
    tool, a type checker, ``typing.get_type_hints``) evaluates it."""

    @pytest.mark.parametrize("cls_path", [
        "repro.core.stripes.StripesIndex",
        "repro.core.quadtree.DualQuadTree",
        "repro.service.sharding.ShardedStripes",
        "repro.service.service.StripesService",
    ])
    def test_public_method_hints_resolve(self, cls_path):
        module_name, cls_name = cls_path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), cls_name)
        checked = 0
        for name, member in vars(cls).items():
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(member, property):
                member = member.fget
            elif isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if not inspect.isfunction(member):
                continue
            typing.get_type_hints(member)
            checked += 1
        assert checked > 0

    def test_sharded_update_paths_hints_resolve(self):
        from repro.service.sharding import ShardedStripes
        hints = typing.get_type_hints(ShardedStripes.update_batch)
        assert "pairs" in hints
        typing.get_type_hints(ShardedStripes._apply_update_run)
