__version__ = "0.1.0"

# Bumped whenever the layout of a settings signature string changes, so two
# reports are comparable only when their signature versions agree.
SIGNATURE_VERSION = 2
