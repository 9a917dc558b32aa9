"""The shared option surface of every ``insane`` sub-command.

Each sub-CLI (bench, validate, scenario) owns its parser, but the
execution knobs — ``--seed``, ``--workers``, ``--no-cache``,
``--cache-dir``, ``--json`` — mean the same thing everywhere, so they
are declared once here and grafted onto each parser, so a flag learnt
on one sub-command works the same on every other.
"""


def add_execution_options(parser, seed=0, workers=1, workers_help=None,
                          json_help=None):
    """Add the shared execution options to ``parser``.

    ``seed=None`` registers ``--seed`` with no default, for commands
    where the seed normally comes from elsewhere (a scenario file) and
    the flag is an explicit override.
    """
    parser.add_argument("--seed", type=int, default=seed,
                        help="base rng seed"
                             if seed is not None else
                             "override every scenario's own seed")
    parser.add_argument(
        "--workers", type=int, default=workers, metavar="N",
        help=workers_help or "shard sweep cells across N worker processes "
                             "(results are bit-identical at any worker "
                             "count)",
    )
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every sweep cell instead of reusing "
                             "the digest-keyed result cache")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result-cache directory (default: "
                             "./.insane-cache or $INSANE_CACHE_DIR)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help=json_help or "write machine-readable results "
                                          "to a JSON file")
    return parser


def make_cache(args):
    """The :class:`~repro.parallel.ResultCache` the parsed args ask for.

    ``--no-cache`` maps to ``None`` (the executor then recomputes every
    cell), anything else to a cache rooted at ``--cache-dir``.
    """
    from repro.parallel import ResultCache

    if getattr(args, "no_cache", False):
        return None
    return ResultCache(root=getattr(args, "cache_dir", None))
