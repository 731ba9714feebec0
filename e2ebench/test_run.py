"""Tests of run.py's metric-name validation.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import copy
import os
import re
import unittest

import run


def result_for(spec, section):
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {m["name"]: {"value": 1.25, "unit": m["unit"]}
                    for m in spec[section]},
    }


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_committed_spec_is_valid(self):
        self.assertEqual(run.validate_spec(self.spec), [])

    def test_binary_metric_tables_match_the_spec(self):
        # The C++ binary reports exactly the names in src/metrics.hpp.
        with open(os.path.join(run.HERE, "src", "metrics.hpp")) as f:
            src = f.read()

        def table(name):
            body = src[src.index(name):]
            body = body[:body.index("};")]
            return re.findall(r'MetricDef\{"([^"]+)", "([^"]+)"\}', body)

        for section, cxx in (("end_to_end", "kEndToEnd"),
                             ("per_layer", "kPerLayer")):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in self.spec[section]],
                table(cxx), section)

    def test_bad_names_and_units_are_rejected(self):
        for bad in ("_lead", "", "x" * 65, "has space", "sl/ash"):
            spec = copy.deepcopy(self.spec)
            spec["per_layer"][0]["name"] = bad
            self.assertTrue(run.validate_spec(spec), bad)
        spec = copy.deepcopy(self.spec)
        spec["end_to_end"][0]["unit"] = "seconds-and-more-than-16"
        self.assertTrue(run.validate_spec(spec))

    def test_duplicate_names_are_rejected(self):
        spec = copy.deepcopy(self.spec)
        spec["per_layer"][1]["name"] = spec["per_layer"][0]["name"]
        self.assertTrue(run.validate_spec(spec))

    def test_setup_s_is_required(self):
        spec = copy.deepcopy(self.spec)
        spec["end_to_end"] = [m for m in spec["end_to_end"]
                              if m["name"] != "setup_s"]
        self.assertTrue(run.validate_spec(spec))


class ResultTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_complete_results_pass(self):
        self.assertEqual(run.validate_result(
            result_for(self.spec, "end_to_end"), self.spec, trace=False), [])
        self.assertEqual(run.validate_result(
            result_for(self.spec, "per_layer"), self.spec, trace=True), [])

    def test_traced_and_untraced_sets_are_not_interchangeable(self):
        self.assertTrue(run.validate_result(
            result_for(self.spec, "per_layer"), self.spec, trace=False))

    def test_missing_extra_and_misunited_metrics_fail(self):
        r = result_for(self.spec, "end_to_end")
        del r["metrics"]["setup_s"]
        self.assertTrue(run.validate_result(r, self.spec, trace=False))
        r = result_for(self.spec, "end_to_end")
        r["metrics"]["bonus"] = {"value": 1.0, "unit": "s"}
        self.assertTrue(run.validate_result(r, self.spec, trace=False))
        r = result_for(self.spec, "end_to_end")
        r["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.validate_result(r, self.spec, trace=False))

    def test_non_finite_values_and_bad_counts_fail(self):
        for mutate in (
                lambda r: r["metrics"]["setup_s"].update(value=None),
                lambda r: r["metrics"]["setup_s"].update(value=float("nan")),
                lambda r: r["metrics"]["setup_s"].update(value=True),
                lambda r: r.update(attempted=0),
                lambda r: r.update(failed=-1),
                lambda r: r.update(attempted=True),
                lambda r: r.update(correct="yes"),
                lambda r: r.update(extra=1)):
            r = result_for(self.spec, "end_to_end")
            mutate(r)
            self.assertTrue(run.validate_result(r, self.spec, trace=False))


if __name__ == "__main__":
    unittest.main()
