"""The one exception type of the pipeline stages."""


class PipelineError(Exception):
    """A stage-level failure, with a message naming its cause; the CLI maps it to exit 1."""
