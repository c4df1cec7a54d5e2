import hypothesis
import pytest

# Keep the suite's run time down (about 30 s on a shared 2-CPU VM);
# property tests stay meaningful at this breadth because the strategies
# are narrow by design, and a test that needs more asks for it.
hypothesis.settings.register_profile(
    "fast", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("fast")

# hypothesis explains a failing property with libcst, whose import warns
# that mypy_extensions.TypedDict is deprecated; under `-W error` that
# warning would end the session with INTERNALERROR instead of the report.
# pytest applies a filterwarnings mark after the command line's -W, and an
# ini entry before it, so only a mark exempts this one warning.
LIBCST_IMPORT = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(LIBCST_IMPORT)
