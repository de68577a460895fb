"""``python -m leibnizalg``: the ``leibnizalg`` command line (:func:`leibnizalg.cli.main`)."""
from .cli import main
raise SystemExit(main())
