"""End-to-end tests of the experiment scripts' command-line mains.

Each ``python -m repro.experiments.<name>`` entry point runs at miniature
scale and must emit its table(s) — protecting the argparse wiring and the
printed formats EXPERIMENTS.md quotes."""



class TestExperimentMains:
    def test_figure1_main(self, capsys):
        from repro.experiments.figure1 import main

        main(["--workers", "3", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "region_size" in out
        assert "vertices_covered" in out

    def test_figure1_main_rhg(self, capsys):
        from repro.experiments.figure1 import main

        main(["--workers", "2", "--rhg"])
        assert "rhg" in capsys.readouterr().out

    def test_figure2_main(self, capsys):
        from repro.experiments.figure2 import main

        main(["--n-exp", "9", "--deg-exp", "3"])
        out = capsys.readouterr().out
        assert "Figure 2 panel: average degree 2^3" in out
        assert "ns_per_edge" in out

    def test_figure2_main_csv(self, capsys):
        from repro.experiments.figure2 import main

        main(["--n-exp", "9", "--deg-exp", "3", "--csv"])
        out = capsys.readouterr().out
        assert "instance,n,m,algorithm" in out

    def test_figure3_main(self, capsys):
        from repro.experiments.figure3 import main

        main(["--scale", "0.15", "--speedups"])
        out = capsys.readouterr().out
        assert "slowdown_vs_ref" in out
        assert "geometric-mean speedups" in out

    def test_figure4_main(self, capsys):
        from repro.experiments.figure4 import main

        main(["--scale", "0.15", "--no-rhg"])
        out = capsys.readouterr().out
        assert "performance profile" in out
        assert "NOIlam-Heap" in out

    def test_figure5_main(self, capsys):
        from repro.experiments.figure5 import main

        main(["--workers", "1", "2", "--scale", "0.15", "--count", "1"])
        out = capsys.readouterr().out
        assert "ParCut scaling" in out
        assert "modeled_speedup" in out

    def test_table1_main(self, capsys):
        from repro.experiments.table1 import main

        main(["--scale", "0.15"])
        out = capsys.readouterr().out
        assert "lambda" in out
        assert "core_n" in out

    def test_ablation_main(self, capsys):
        from repro.experiments.ablation import main

        main(["--scale", "0.15"])
        out = capsys.readouterr().out
        assert "Ablation 1" in out
        assert "Ablation 3" in out
        assert "Ablation 4" not in out  # the sparse-certificate table is retired
