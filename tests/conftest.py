import hypothesis

# Keep the suite's run time down (about 30 s on a shared 2-CPU VM);
# property tests stay meaningful at this breadth because the strategies
# are narrow by design, and a test that needs more asks for it.
hypothesis.settings.register_profile(
    "fast", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("fast")
