"""End-to-end benchmark of the AutoHEnsGNN pipeline and its serving path.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
