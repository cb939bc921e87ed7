"""Reference implementations the equivalence tests compare against.

They live with the tests, not in ``src/``, because no runtime caller
should ever pick them.
"""

from typing import Sequence

from repro.campaign.fleet import DeviceSpec
from repro.core.config import SchedulerConfig
from repro.scheduler.belief import ArmSpec, FleetBelief


def fold_event_stream(
    fleet: Sequence[DeviceSpec],
    classes: Sequence[str],
    scheduler: SchedulerConfig,
    arms: Sequence[ArmSpec],
    records: Sequence[dict],
) -> FleetBelief:
    """Fold a service event log into one fresh belief.

    Replays every ``dispatch``/``result`` record, in log order, into a
    belief built over the full fleet.  For a run that started fresh the
    result must carry the live service's belief digest: the event log
    alone determines the belief.
    """
    belief = FleetBelief(
        fleet,
        classes,
        cycle_budget=scheduler.cycle_budget,
        fleet_blend=scheduler.fleet_blend,
    )
    arms_by_name = {arm.name: arm for arm in arms}
    for record in records:
        if record.get("type") != "event":
            continue
        attrs = record.get("attrs", {})
        name = record.get("name")
        if name == "dispatch":
            belief.record_dispatch(
                attrs["device"], arms_by_name[attrs["arm"]]
            )
        elif name == "result":
            belief.record_outcome(
                attrs["device"],
                arms_by_name[attrs["arm"]],
                attrs["detected"],
                attrs["cycles"],
                detected_by=attrs.get("detected_by"),
            )
    return belief
