"""README's library example runs as written and prints what its comments say."""

from readme_example import example_source, run_example, stated_values


def test_readme_library_example_reads_the_values_its_comments_state():
    source = example_source()
    assert "construct_uniform(partition, 4" in source and "bound_report(" in source
    for text, holds in stated_values(run_example()):
        assert holds, text
