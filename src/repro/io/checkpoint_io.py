"""JSON persistence of campaign checkpoints.

A checkpoint is one JSON document holding the design, a dense snapshot of
the grid (:meth:`RoutingGrid.snapshot_state`), the (possibly in-progress)
routing solution and the campaign cursor.  Loading a checkpoint builds a
fresh grid over the design and restores the snapshot into it, bit-identical
to the grid that was saved, which makes long rip-up campaigns resumable
(see :func:`repro.eval.experiments.route_with_checkpoint`).  Size and
restore time are bounded by the grid, not by campaign age.

The document (``repro-checkpoint-v3``, written by :func:`save_checkpoint`)
has the keys ``format``, ``design``, ``grid``, ``solution``, ``campaign``
and ``checksum``.  The optional ``campaign`` section records the rip-up
loop position (iteration cursor, best-iteration tracking, completion flag)
so a preempted campaign resumes from its last completed iteration.  Older
formats, which carried an op log in place of the snapshot, are refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.campaign import CampaignState
from repro.design import Design
from repro.grid import RoutingGrid, RoutingSolution
from repro.io.json_io import (
    design_from_dict,
    design_to_dict,
    route_from_dict,
    route_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from repro.utils.env import env_int

PathLike = Union[str, Path]

#: How many checkpoint generations :func:`save_checkpoint` retains
#: (``path`` plus ``path.1`` .. ``path.K-1``); at least 1.
CHECKPOINT_KEEP_ENV = "REPRO_CHECKPOINT_KEEP"
DEFAULT_CHECKPOINT_KEEP = 2


class CheckpointIntegrityError(ValueError):
    """A checkpoint file is corrupt: unreadable JSON, a truncated (torn)
    write, or a checksum mismatch.

    Classified separately from "no checkpoint" (``FileNotFoundError``) and
    "valid but wrong campaign" (plain ``ValueError``) so callers can fall
    back to an older retained generation instead of aborting the resume.
    """

#: Schema tag of the documents :func:`save_checkpoint` writes and
#: :func:`load_checkpoint` accepts.
CHECKPOINT_FORMAT = "repro-checkpoint-v3"


def _write_atomic(path: PathLike, text: str) -> None:
    """Durably write *text* to *path* via a same-directory temp file + rename.

    A crash mid-write must never leave a truncated or stale document
    behind: a half-written checkpoint would make every later resume
    attempt fail instead of falling back to routing.  Three properties
    make the write preemption-safe:

    * the scratch name is unique per call (``mkstemp``), so concurrent
      writers to the same target never clobber each other's temp file;
    * the temp file is flushed **and fsynced before** ``os.replace`` --
      rename-before-data-reaches-disk is exactly the crash window that
      surfaces a zero-length file under the final name after power loss;
    * the directory is fsynced after the rename so the new directory
      entry itself is durable.
    """
    target = Path(path)
    fd, scratch = tempfile.mkstemp(
        dir=str(target.parent) or ".", prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, target)
    except BaseException:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise
    dir_fd = os.open(str(target.parent) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# ----------------------------------------------------------------------
# Campaign state
# ----------------------------------------------------------------------

def campaign_to_dict(campaign: CampaignState) -> Dict[str, Any]:
    """Serialise the rip-up loop position (without the solution).

    The in-progress solution travels in the checkpoint's own ``solution``
    slot -- the campaign section holds only the cursor and the
    best-iteration tracking.
    """
    document: Dict[str, Any] = {
        "iteration": campaign.iteration,
        "done": campaign.done,
        "best_defects": (
            list(campaign.best_defects) if campaign.best_defects is not None else None
        ),
        "best_routes": (
            [route_to_dict(route) for route in campaign.best_routes.values()]
            if campaign.best_routes is not None
            else None
        ),
    }
    if campaign.executor_stats is not None:
        # The campaign's cumulative executor counters (batches, worker
        # errors, checkpoint fallbacks, phase seconds, ...): a preempted-
        # and-resumed campaign must not forget its earlier life.
        document["executor_stats"] = dict(campaign.executor_stats)
    return document


def campaign_from_dict(
    data: Dict[str, Any], solution: Optional[RoutingSolution], dims: Tuple[int, int]
) -> CampaignState:
    """Rebuild a :class:`CampaignState` around the checkpoint's *solution*.

    *dims* is the grid's :attr:`RoutingGrid.route_dims`, which the routes'
    flat indices address.
    """
    best_routes = None
    if data.get("best_routes") is not None:
        routes = [route_from_dict(route_data, dims) for route_data in data["best_routes"]]
        best_routes = {route.net_name: route for route in routes}
    best_defects = data.get("best_defects")
    return CampaignState(
        iteration=data.get("iteration", 0),
        solution=solution,
        best_defects=tuple(best_defects) if best_defects is not None else None,
        best_routes=best_routes,
        done=data.get("done", False),
        executor_stats=data.get("executor_stats"),
    )


# ----------------------------------------------------------------------
# Checkpoints (design + grid snapshot + solution + campaign)
# ----------------------------------------------------------------------

def checkpoint_to_dict(
    design: Design,
    grid: RoutingGrid,
    solution: Optional[RoutingSolution] = None,
    campaign: Optional[CampaignState] = None,
) -> Dict[str, Any]:
    """Serialise a campaign checkpoint to a JSON-compatible dictionary."""
    document: Dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "design": design_to_dict(design),
        "grid": grid.snapshot_state(),
    }
    if solution is not None:
        document["solution"] = solution_to_dict(solution)
    if campaign is not None:
        document["campaign"] = campaign_to_dict(campaign)
    document["checksum"] = checkpoint_checksum(document)
    return document


def checkpoint_checksum(document: Dict[str, Any]) -> str:
    """Return the integrity checksum of a checkpoint dictionary.

    SHA-256 over the canonical (sorted-keys, tight-separator) JSON of the
    document minus its ``checksum`` field -- so verification is independent
    of key order and whitespace, and a document round-tripped through
    ``json`` still validates.
    """
    payload = {key: value for key, value in document.items() if key != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def checkpoint_from_dict(
    data: Dict[str, Any],
) -> Tuple[Design, RoutingGrid, Optional[RoutingSolution]]:
    """Rebuild ``(design, grid, solution)`` from a checkpoint dict.

    The grid is a fresh :class:`RoutingGrid` over the saved design with the
    saved snapshot restored into it -- bit-identical to the grid that was
    saved.  Use :func:`checkpoint_campaign` for the campaign section.
    """
    if data.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"not a {CHECKPOINT_FORMAT} document (format={data.get('format')!r})"
        )
    design = design_from_dict(data["design"])
    grid = RoutingGrid(design)
    grid.restore_state(data["grid"])
    solution = (
        solution_from_dict(data["solution"], grid.route_dims) if "solution" in data else None
    )
    return design, grid, solution


def checkpoint_campaign(
    data: Dict[str, Any], solution: Optional[RoutingSolution]
) -> Optional[CampaignState]:
    """Return the checkpoint's campaign state, or ``None`` when absent.

    A checkpoint saved without a campaign holds a finished solution, so
    absence means "complete".
    """
    if "campaign" not in data:
        return None
    _layers, num_cols, num_rows = data["grid"]["dims"]
    return campaign_from_dict(data["campaign"], solution, (num_cols, num_rows))


def resolve_checkpoint_keep(explicit: Optional[int] = None) -> int:
    """Return the retained-generation count (arg > env > default, min 1)."""
    if explicit is not None:
        return max(1, explicit)
    return max(1, env_int(CHECKPOINT_KEEP_ENV, DEFAULT_CHECKPOINT_KEEP))


def checkpoint_candidates(path: PathLike, keep: Optional[int] = None) -> List[Path]:
    """Return the retained checkpoint paths, newest first.

    Generation 0 is *path* itself; older generations live at ``path.1`` ..
    ``path.{keep-1}`` (rotated by :func:`rotate_checkpoints`).
    """
    target = Path(path)
    keep = resolve_checkpoint_keep(keep)
    return [target] + [
        target.with_name(f"{target.name}.{age}") for age in range(1, keep)
    ]


def rotate_checkpoints(path: PathLike, keep: Optional[int] = None) -> None:
    """Shift the retained generations down one slot before a new save.

    ``path`` -> ``path.1`` -> ... -> ``path.{keep-1}`` (the oldest falls
    off).  The aged generations shift by rename; the live ``path`` itself
    is *copied* into ``path.1`` rather than moved or hard-linked, so
    there is never a window -- even under SIGKILL mid-save -- where no
    document exists at ``path``, and a torn in-place overwrite of
    ``path`` can never reach back and corrupt the retained generation
    through a shared inode.

    Only a live document that passes :func:`load_checkpoint_document` is
    retained: after a resume from ``path.1`` because ``path`` was torn,
    rotating the torn file would overwrite the last good generation.  A
    corrupt live file is left in place, untouched, for the coming save to
    replace.
    """
    candidates = checkpoint_candidates(path, keep)
    if len(candidates) < 2:
        return
    live, aged = candidates[0], candidates[1:]
    try:
        load_checkpoint_document(live)
    except (FileNotFoundError, CheckpointIntegrityError):
        return
    for older, newer in zip(reversed(aged[1:]), reversed(aged[:-1])):
        if newer.exists():
            os.replace(newer, older)
    aged[0].write_bytes(live.read_bytes())


def save_checkpoint(
    path: PathLike,
    design: Design,
    grid: RoutingGrid,
    solution: Optional[RoutingSolution] = None,
    campaign: Optional[CampaignState] = None,
    keep: Optional[int] = None,
) -> None:
    """Write a campaign checkpoint to *path* as JSON (atomically + durably).

    With ``keep > 1`` (default: the ``REPRO_CHECKPOINT_KEEP`` env knob,
    2), the previous generations are rotated to ``path.1`` .. first, so a
    save that lands torn (filesystem without atomic rename, power loss)
    still leaves an older complete document for
    :func:`load_checkpoint_document_with_fallback` to resume from.
    """
    if resolve_checkpoint_keep(keep) > 1:
        rotate_checkpoints(path, keep)
    _write_atomic(
        path, json.dumps(checkpoint_to_dict(design, grid, solution, campaign))
    )


def load_checkpoint(
    path: PathLike,
) -> Tuple[Design, RoutingGrid, Optional[RoutingSolution]]:
    """Read a checkpoint previously written by :func:`save_checkpoint`."""
    return checkpoint_from_dict(load_checkpoint_document(path))


def load_checkpoint_document(path: PathLike) -> Dict[str, Any]:
    """Read and integrity-check a checkpoint file as its raw JSON dictionary.

    Raises :class:`CheckpointIntegrityError` for unreadable JSON (torn or
    truncated writes), a non-dictionary document, or a checksum mismatch;
    a missing file stays ``FileNotFoundError``.  A document without a
    ``checksum`` field is accepted as-is.
    """
    target = Path(path)
    try:
        document = json.loads(target.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointIntegrityError(
            f"checkpoint {target} is corrupt (torn or truncated write): {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise CheckpointIntegrityError(
            f"checkpoint {target} is not a JSON object "
            f"(got {type(document).__name__})"
        )
    expected = document.get("checksum")
    if expected is not None and checkpoint_checksum(document) != expected:
        raise CheckpointIntegrityError(
            f"checkpoint {target} failed its integrity check "
            "(checksum mismatch: bit rot or a partially overwritten file)"
        )
    return document


def load_checkpoint_document_with_fallback(
    path: PathLike, keep: Optional[int] = None
) -> Tuple[Dict[str, Any], Path]:
    """Load the newest valid retained checkpoint document.

    Tries *path* first, then the rotated generations ``path.1`` .. in age
    order; returns ``(document, used_path)``.  Raises ``FileNotFoundError``
    when no generation exists at all, and :class:`CheckpointIntegrityError`
    (describing every candidate's failure) when generations exist but all
    are corrupt.
    """
    errors: List[str] = []
    found_any = False
    for candidate in checkpoint_candidates(path, keep):
        try:
            return load_checkpoint_document(candidate), candidate
        except FileNotFoundError:
            continue
        except CheckpointIntegrityError as exc:
            found_any = True
            errors.append(str(exc))
    if not found_any:
        raise FileNotFoundError(f"no checkpoint found at {path} (or rotations)")
    raise CheckpointIntegrityError(
        "every retained checkpoint generation is corrupt: " + "; ".join(errors)
    )
