"""Tests for the serve request/response protocol."""

from __future__ import annotations

import pytest

from repro.serve.schema import (
    MAX_REQUEST_LIST_ENTRIES,
    RequestError,
    SCHEMA_VERSION,
    edges_digest,
    envelope,
    parse_algorithm,
    parse_request,
    parse_topology,
    topology_key,
)


class TestEnvelope:
    def test_stamps_schema_and_kind(self):
        body = envelope("coloring", status="ok", x=1)
        assert body["schema"] == SCHEMA_VERSION
        assert body["kind"] == "coloring"
        assert body["x"] == 1


class TestTopologyParsing:
    def test_ring_stream(self):
        spec = parse_topology({"kind": "ring-stream", "n": 100})
        assert spec == {"kind": "ring-stream", "n": 100}
        assert topology_key(spec) == ("ring-stream", 100)

    def test_stream_keys_match_streaming_registry(self):
        # The daemon's keys must be the exact keys stream_* interns
        # under, so a daemon request reuses a prior scale run's topology.
        spec = parse_topology({"kind": "gnp-stream", "n": 50,
                               "p": 0.1, "seed": 3})
        assert topology_key(spec) == ("gnp-stream", 50, 0.1, 3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(RequestError, match="unknown topology kind"):
            parse_topology({"kind": "torus", "n": 10})

    def test_rejects_non_dict(self):
        with pytest.raises(RequestError):
            parse_topology("ring")

    def test_bounds_checked(self):
        with pytest.raises(RequestError, match="must lie in"):
            parse_topology({"kind": "ring-stream", "n": 2})
        with pytest.raises(RequestError, match="must lie in"):
            parse_topology({"kind": "ring-stream", "n": 10 ** 9})

    def test_bool_is_not_an_int(self):
        with pytest.raises(RequestError, match="must be an integer"):
            parse_topology({"kind": "ring-stream", "n": True})

    def test_regular_parity(self):
        with pytest.raises(RequestError, match="even"):
            parse_topology({"kind": "regular-stream", "n": 5,
                            "degree": 3})

    def test_edges_validated_and_digested(self):
        spec = parse_topology({
            "kind": "edges", "n": 3, "edges": [[0, 1], [1, 2]],
        })
        assert spec["edges"] == [(0, 1), (1, 2)]
        assert spec["id"] == edges_digest(3, [(0, 1), (1, 2)])
        assert topology_key(spec) == ("uploaded", spec["id"])

    def test_edges_order_is_identity(self):
        # Adjacency order is part of the simulation's identity.
        a = edges_digest(3, [(0, 1), (1, 2)])
        b = edges_digest(3, [(1, 2), (0, 1)])
        assert a != b

    def test_edge_bounds(self):
        with pytest.raises(RequestError, match="out of bounds"):
            parse_topology({"kind": "edges", "n": 2, "edges": [[0, 5]]})
        with pytest.raises(RequestError, match="out of bounds"):
            parse_topology({"kind": "edges", "n": 3, "edges": [[1, 1]]})
        with pytest.raises(RequestError, match="malformed"):
            parse_topology({"kind": "edges", "n": 3, "edges": [[0]]})

    def test_graph_handle_needs_id(self):
        with pytest.raises(RequestError, match="string 'id'"):
            parse_topology({"kind": "graph"})


class TestSchemaVersion:
    def test_v3_stamp(self):
        # v3 dropped greedy-reduction's partition-count field and made
        # algorithm specs reject fields they do not read.
        assert SCHEMA_VERSION == "repro-result/v3"


class TestAlgorithmParsing:
    def test_name_shorthand(self):
        spec = parse_algorithm("greedy-reduction")
        assert spec["name"] == "greedy-reduction"
        assert spec["colors"] == 16
        assert spec["validate"] is True
        assert set(spec) == {"name", "colors", "validate"}

    def test_unknown_algorithm_fields_rejected(self):
        with pytest.raises(RequestError,
                           match=r"unknown algorithm fields: \['colour'\]"):
            parse_algorithm({"name": "greedy-reduction", "colour": 8})
        # Each algorithm accepts exactly the fields it reads.
        with pytest.raises(RequestError, match=r"\['colors'\]"):
            parse_algorithm({"name": "two-sweep", "colors": 8})
        with pytest.raises(RequestError, match=r"\['epsilon'\]"):
            parse_algorithm({"name": "two-sweep", "epsilon": 0.5})
        with pytest.raises(RequestError, match=r"\['p'\]"):
            parse_algorithm({"name": "greedy-reduction", "p": 2})
        spec = parse_algorithm({
            "name": "fast-two-sweep", "p": 3, "seed": 1, "id_bits": 8,
            "check": False, "lists": "stuck", "epsilon": 0.5,
        })
        assert spec["epsilon"] == 0.5

    def test_sweep_defaults(self):
        spec = parse_algorithm({"name": "two-sweep"})
        assert spec["p"] == 2
        assert spec["seed"] == 0
        assert spec["lists"] == "random"
        assert "epsilon" not in spec

    def test_fast_sweep_epsilon(self):
        spec = parse_algorithm({"name": "fast-two-sweep",
                                "epsilon": 0.5})
        assert spec["epsilon"] == 0.5

    def test_unknown_algorithm(self):
        with pytest.raises(RequestError, match="unknown algorithm"):
            parse_algorithm({"name": "magic"})

    def test_lists_mode_checked(self):
        with pytest.raises(RequestError, match="'lists'"):
            parse_algorithm({"name": "two-sweep", "lists": "evil"})

    def test_two_sweep_id_bits_bounded_by_round_limit(self):
        # Algorithm 1 runs 2 * 2^id_bits + 1 rounds: 524,289 at 18 bits
        # fits DEFAULT_MAX_ROUNDS = 10^6, 1,048,577 at 19 does not.
        assert parse_algorithm({"name": "two-sweep",
                                "id_bits": 18})["id_bits"] == 18
        with pytest.raises(RequestError,
                           match=r"id_bits=19 needs 1048577 two-sweep rounds"):
            parse_algorithm({"name": "two-sweep", "id_bits": 19})
        # Algorithm 2 does not sweep the id colors one round apiece.
        assert parse_algorithm({"name": "fast-two-sweep",
                                "id_bits": 19})["id_bits"] == 19

    def test_fast_two_sweep_plain_route_bounded_by_round_limit(self):
        # q = 2^20 <= (p / eps)^2 + log* q = 4 * 10^6 + 5: Algorithm 2's
        # line 1 takes plain Algorithm 1, 2q + 1 = 2,097,153 rounds.
        with pytest.raises(RequestError,
                           match=r"id_bits=20 needs 2097153 two-sweep rounds"):
            parse_algorithm({"name": "fast-two-sweep", "id_bits": 20,
                             "p": 2, "epsilon": 0.001})
        # With epsilon = 0.25 the same ids take the defective route.
        assert parse_algorithm({"name": "fast-two-sweep", "id_bits": 20,
                                "p": 2, "epsilon": 0.25})["id_bits"] == 20


class TestRequestParsing:
    @pytest.mark.parametrize("topology, n", [
        ({"kind": "ring-stream"}, None),
        ({"kind": "gnp-stream", "p": 0.0}, None),
        ({"kind": "regular-stream", "degree": 2}, None),
        ({"kind": "edges", "edges": []}, None),
        ({"kind": "grid-stream", "rows": 708, "cols": 707}, 500_556),
        ({"kind": "tree-stream", "depth": 18}, 524_287),
    ], ids=["ring", "gnp", "regular", "edges", "grid", "tree"])
    def test_two_sweep_without_id_bits_bounded_by_round_limit(self,
                                                              topology, n):
        # Without id_bits q = n: 2n + 1 rounds, 999,999 at n = 499,999
        # fits DEFAULT_MAX_ROUNDS = 10^6, 1,000,001 at 500,000 does not.
        def request(algorithm, nodes):
            spec = dict(topology, n=nodes) if n is None else topology
            return parse_request({"topology": spec, "algorithm": algorithm})

        if n is None:
            assert request("two-sweep", 499_999)["algorithm"]["id_bits"] == 0
        nodes = 500_000 if n is None else n
        with pytest.raises(RequestError, match=(
                rf"q = n = {nodes} \(no id_bits\) needs {2 * nodes + 1} "
                r"two-sweep rounds, over the 1000000 round limit")):
            request("two-sweep", nodes)
        # Other algorithms do not sweep one round per node id.
        for name in ("fast-two-sweep", "greedy-reduction"):
            assert request(name, nodes)["algorithm"]["name"] == name

    def test_fast_two_sweep_plain_route_without_id_bits(self):
        # q = n = 500,000 <= (2 / 0.001)^2: plain Algorithm 1 over the
        # node ids, 1,000,001 rounds.
        with pytest.raises(RequestError, match=(
                r"q = n = 500000 \(no id_bits\) needs 1000001 two-sweep "
                r"rounds")):
            parse_request({
                "topology": {"kind": "ring-stream", "n": 500_000},
                "algorithm": {"name": "fast-two-sweep", "p": 2,
                              "epsilon": 0.001},
            })

    @pytest.mark.parametrize("name", ["two-sweep", "fast-two-sweep"])
    def test_list_entries_bounded(self, name):
        # n * p^2 list entries: 2000 * 44^2 = 3,872,000 fits, 45^2 not.
        assert 2000 * 44 ** 2 <= MAX_REQUEST_LIST_ENTRIES < 2000 * 45 ** 2

        def request(p):
            return parse_request({
                "topology": {"kind": "gnp-stream", "n": 2000,
                             "p": 0.002},
                "algorithm": {"name": name, "p": p},
            })

        assert request(44)["algorithm"]["p"] == 44
        for p in (45, 64):
            with pytest.raises(RequestError, match=(
                    rf"n \* p\^2 = 2000 \* {p}\^2 = {2000 * p * p} list "
                    r"entries")):
                request(p)

    def test_full_request(self):
        spec = parse_request({
            "topology": {"kind": "ring-stream", "n": 32},
            "algorithm": "greedy-reduction",
            "include_colors": True,
        })
        assert spec["include_colors"] is True
        assert spec["trace"] is True

    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            parse_request({
                "topology": {"kind": "ring-stream", "n": 32},
                "algorithm": "greedy-reduction",
                "sudo": True,
            })

    def test_non_object_body(self):
        with pytest.raises(RequestError, match="JSON object"):
            parse_request([1, 2, 3])


class TestParseRequestFuzz:
    """Seeded mutations of valid bodies: ``parse_request`` returns a spec
    or raises :class:`RequestError`, never anything else."""

    VALID = [
        {"topology": {"kind": "ring-stream", "n": 100},
         "algorithm": {"name": "greedy-reduction", "colors": 16,
                       "validate": True}},
        {"topology": {"kind": "grid-stream", "rows": 4, "cols": 5},
         "algorithm": "greedy-reduction", "include_colors": True},
        {"topology": {"kind": "tree-stream", "depth": 5},
         "algorithm": {"name": "two-sweep", "p": 2, "seed": 1}},
        {"topology": {"kind": "gnp-stream", "n": 200, "p": 0.02,
                      "seed": 3},
         "algorithm": {"name": "fast-two-sweep", "p": 3,
                       "epsilon": 0.5, "id_bits": 8}, "trace": False},
        {"topology": {"kind": "regular-stream", "n": 20, "degree": 3,
                      "seed": 1},
         "algorithm": {"name": "two-sweep", "lists": "stuck",
                       "check": False}},
        {"topology": {"kind": "gnp", "n": 30, "density": 0.2, "seed": 2},
         "algorithm": {"name": "greedy-reduction"}},
        {"topology": {"kind": "edges", "n": 4,
                      "edges": [[0, 1], [1, 2], [2, 3]]},
         "algorithm": {"name": "two-sweep", "p": 1}},
        {"topology": {"kind": "graph", "id": "abc"},
         "algorithm": {"name": "fast-two-sweep"}},
    ]

    JUNK = [
        None, True, False, 0, 1, -1, 3, 2 ** 31, 2 ** 63, -(2 ** 63),
        10 ** 400, -(10 ** 400), 0.5, -0.0, 1e308, 1e-320,
        float("nan"), float("inf"), float("-inf"), "", "x", "ring-stream",
        "two-sweep", [], [0, 1], [[0, 1]], [None], {}, {"kind": []},
        {"n": {"n": [1.5]}}, [[[float("nan")]]],
    ]

    @classmethod
    def _mutate(cls, rng, value):
        """``value`` with one mutation at a random depth."""
        if isinstance(value, dict) and value and rng.random() < 0.7:
            key = rng.choice(sorted(value))
            out = dict(value)
            roll = rng.random()
            if roll < 0.15:
                del out[key]
            elif roll < 0.25:
                out[rng.choice(["extra", "N", "kind ", "", "p"])] = \
                    rng.choice(cls.JUNK)
            else:
                out[key] = cls._mutate(rng, out[key])
            return out
        if isinstance(value, list) and value and rng.random() < 0.7:
            out = list(value)
            k = rng.randrange(len(out))
            out[k] = cls._mutate(rng, out[k])
            return out
        roll = rng.random()
        if isinstance(value, int) and not isinstance(value, bool) \
                and roll < 0.5:
            return rng.choice([
                bool(value), not value, -value, value - 1, value + 1,
                -rng.randrange(1, 10 ** 6), 10 ** rng.randrange(6, 40),
                rng.random() * 100, str(value), [value],
            ])
        if isinstance(value, float) and roll < 0.5:
            return rng.choice([float("nan"), float("inf"),
                               float("-inf"), -value, 10 ** 400, 1,
                               str(value), True])
        if roll < 0.8:
            return rng.choice(cls.JUNK)
        return rng.choice([[value], {"value": value}, [cls.JUNK, value]])

    def test_mutated_bodies_parse_or_raise_request_error(self):
        import random

        rng = random.Random(20261019)
        outcomes = {"spec": 0, "rejected": 0}
        for _ in range(200_000):
            body = rng.choice(self.VALID)
            for _ in range(rng.randint(1, 3)):
                body = self._mutate(rng, body)
            try:
                spec = parse_request(body)
            except RequestError:
                outcomes["rejected"] += 1
                continue
            except Exception as exc:  # pragma: no cover - the finding
                pytest.fail(f"{type(exc).__name__}: {exc} on {body!r}")
            assert set(spec) == {"topology", "algorithm",
                                 "include_colors", "trace"}
            outcomes["spec"] += 1
        # Both outcomes occur, so the mutations reach past the first
        # check without always breaking the body.
        assert min(outcomes.values()) > 100, outcomes
